import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import pytest

from orbicount import cli, enumeration, localfactors
from orbicount.cli import main
from orbicount.constants import ZETA2
from orbicount.orbifold import PlaceSet, projective_space


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_explicit_grid_csv(capsys):
    code, out, _ = run(
        capsys, "count", "--model", "p1", "--m", "2", "--grid", "10,100", "--mode", "all"
    )
    assert code == 0
    assert out.splitlines() == [
        "B,n_rational,n_campana,n_darmon",
        "10,127,55,45",
        "100,12175,1647,1247",
    ]


def test_count_single_mode_leaves_other_columns_empty(capsys):
    code, out, _ = run(
        capsys, "count", "--model", "p1", "--m", "2", "--grid", "10", "--mode", "darmon"
    )
    assert code == 0
    assert out.splitlines()[1] == "10,,,45"


def test_count_geometric_grid_row_count(capsys):
    code, out, _ = run(
        capsys,
        "count",
        "--model",
        "p1",
        "--m",
        "2",
        "--bmax",
        "1e4",
        "--grid",
        "geometric:10",
        "--mode",
        "darmon",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11  # header + 10 rows
    assert lines[-1].startswith("10000,")


@pytest.mark.parametrize("bmin", ["0", "-5"])
def test_count_geometric_grid_rejects_nonpositive_bmin(capsys, bmin):
    code, out, err = run(
        capsys, "count", "--model", "p1", "--grid", "geometric:3", "--bmax", "100",
        "--bmin", bmin,
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_count_geometric_grid_fractional_bmin(capsys):
    code, out, _ = run(
        capsys, "count", "--model", "p1", "--grid", "geometric:3", "--bmax", "100",
        "--bmin", "1/2", "--mode", "rational",
    )
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["1", "7", "100"]


def test_count_sorts_explicit_grid(capsys):
    _, out_sorted, _ = run(
        capsys, "count", "--model", "p1", "--grid", "10,40,100", "--mode", "rational"
    )
    _, out_permuted, _ = run(
        capsys, "count", "--model", "p1", "--grid", "100,10,40", "--mode", "rational"
    )
    assert out_sorted == out_permuted


def test_count_blowup_with_s_primes(capsys):
    code, out, _ = run(
        capsys,
        "count",
        "--model",
        "blowup",
        "--m1",
        "1",
        "--m2",
        "2",
        "--s",
        "2,3",
        "--grid",
        "50",
        "--mode",
        "darmon",
    )
    assert code == 0
    assert out.splitlines()[0] == "B,n_rational,n_campana,n_darmon"


def test_count_json_format(capsys):
    code, out, _ = run(
        capsys,
        "count",
        "--model",
        "p1",
        "--m",
        "2",
        "--grid",
        "10",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["records"][0]["n_darmon"] == 45
    assert payload["records"][0]["b"] == "10"


def test_count_json_single_mode_keys_and_nulls(capsys):
    code, out, _ = run(
        capsys, "count", "--model", "p1", "--m", "2", "--grid", "10", "--mode",
        "campana", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)["records"][0]
    assert list(record) == ["b", "n_rational", "n_campana", "n_darmon"]
    assert record == {"b": "10", "n_rational": None, "n_campana": 55, "n_darmon": None}
    assert '"n_rational": null' in out and '"n_darmon": null' in out


def test_fit_uncounted_column_exits_2(tmp_path, capsys):
    csv = tmp_path / "darmon.csv"
    code, _, _ = run(
        capsys, "count", "--model", "p1", "--m", "2", "--grid", "10,100", "--mode",
        "darmon", "--output", str(csv),
    )
    assert code == 0
    code, out, err = run(capsys, "fit", str(csv), "--a", "2", "--b", "1", "--column", "rational")
    assert (code, out, err) == (2, "", "error: no count points to fit\n")


def test_invalid_weight_exits_2(capsys):
    code, _, err = run(capsys, "count", "--model", "p1", "--m", "0", "--grid", "10")
    assert code == 2
    assert "error" in err


def test_budget_cap_exits_3(capsys):
    code, _, err = run(
        capsys,
        "count",
        "--model",
        "p1",
        "--grid",
        "100000",
        "--mode",
        "rational",
        "--budget",
        "10",
    )
    assert code == 3
    assert "budget" in err


def test_count_pn3_equals_the_oracle(capsys):
    # iter_points at B = 5: 6,351 points in every mode for m = 1, and 3,743
    # Darmon and Campana points for m = 2, S = {2}
    code, out, err = run(
        capsys, "count", "--model", "pn", "--n", "3", "--grid", "5", "--mode", "all"
    )
    assert code == 0 and "Traceback" not in err
    assert out.splitlines()[1] == "5,6351,6351,6351"
    code, out, _ = run(
        capsys, "count", "--model", "pn", "--n", "3", "--m", "2", "--s", "2",
        "--grid", "5", "--mode", "all",
    )
    assert code == 0
    assert out.splitlines()[1] == "5,6351,3743,3743"


@pytest.mark.parametrize("argv", [("--n", "100000", "--grid", "10"),
                                  ("--n", "1000", "--grid", "1e9")])
def test_count_past_the_printable_digits_exits_2_at_once(capsys, monkeypatch, argv):
    # up to n log10(2B + 1) + log10(B) + 1 digits, past the 4300 that Python
    # prints of an integer by default: refused before any counting
    def unreachable(*args, **kwargs):
        raise AssertionError("counted before the digits were checked")

    monkeypatch.setattr(enumeration, "count_series", unreachable)
    code, out, err = run(capsys, "count", "--model", "pn", *argv, "--mode", "rational")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "digits" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--model", "p1", "--m", "2", "--mode", "darmon", "--grid", "1e400"),
        ("count", "--model", "p1", "--m", "2", "--mode", "campana", "--grid", "1e30"),
        ("count", "--model", "p1", "--m", "1", "--mode", "rational", "--grid", "1e400"),
        ("count", "--grid", "1e700"),
    ],
)
def test_huge_bound_exits_3_before_enumerating(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "budget" in err and "Traceback" not in err
    # amounts past 15 digits print as a mantissa and a power of ten: at 1e700
    # the Mertens route's charge has 468 digits (a 526-character line whole)
    assert err.count("\n") == 1 and len(err) < 80



def test_refused_blowup_grid_builds_no_lower_bound(capsys, monkeypatch):
    # the top bound 1e17 passes the budget, so the grid is refused before
    # the sieve, the totient table or any divisor row of 1e14 is built
    def unreachable(*args, **kwargs):
        raise AssertionError("built before the top bound was charged")

    for name in ("mobius_sieve", "totient_sieve", "line_divisor_rows", "_denominator_walk"):
        monkeypatch.setattr(enumeration, name, unreachable)
    code, out, err = run(capsys, "count", "--model", "blowup", "--m1", "1", "--m2", "1",
                         "--mode", "darmon", "--grid", "1e14,1e17")
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_large_weight_counts_run_under_the_default_budget(capsys):
    # every mode by default; the Campana denominator bound is 2 here
    code, out, err = run(capsys, "count", "--model", "p1", "--m", "17", "--grid", "10")
    assert code == 0 and "Traceback" not in err
    assert out.splitlines()[1] == "10,127,21,21"


@pytest.mark.parametrize(
    "argv",
    [
        ("zeta", "--model", "p1", "--m", "1", "--probe", "2.5", "--bound", "1e9"),
        ("zeta", "--model", "blowup", "--m1", "1", "--m2", "1", "--probe", "1.5",
         "--bound", "1e16"),
    ],
)
def test_huge_zeta_bound_exits_3_before_summing(capsys, argv):
    # m = 1 on the line: the Moebius reduction charges 2B + 1 = 2e9 steps (its
    # sieve and prefix array would take about 9 GB); on the blow-up the charge
    # is 1.2e9 at 1e16, before the sieve to Mmax = 1e8 (1.2e8 at 1e14, which
    # the budget admits)
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "budget" in err and "Traceback" not in err


def test_sparse_blowup_zeta_runs_under_the_default_budget(capsys):
    # weights (3, 1) in Campana mode at 1e12: Mmax = 1e9, and the two n^-s
    # tables of Mmax + 1 entries, which the sparse sum does not build, made
    # 2,000,000,002 of the 2,000,020,012 steps that once refused it
    code, out, err = run(capsys, "zeta", "--model", "blowup", "--m1", "3", "--m2", "1",
                         "--mode", "campana", "--s", "1.5", "--bound", "1e12")
    assert code == 0 and "Traceback" not in err
    assert math.isfinite(json.loads(out)["value"])


def test_line_zeta_charges_its_rows_before_the_walk(capsys, monkeypatch):
    # at 1e14 the Darmon line sum charges 1e7 denominators times 2^8 divisor
    # rows each (2.6e9) and is refused before the walk; at 1e9 it charges
    # 2.0e6 and runs (the O(B) prefix array it no longer builds charged 1e9 + 1);
    # the value is the rows' Hurwitz zeta differences at 30 digits (mpmath)
    code, out, err = run(capsys, "zeta", "--m", "2", "--s", "2.5", "--bound", "1e9")
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)["value"] == pytest.approx(4.048370183760561, rel=1e-12)

    def walk(*args, **kwargs):
        raise AssertionError("walked the denominators before the charge")

    monkeypatch.setattr(enumeration, "_denominator_walk", walk)
    code, _, err = run(capsys, "zeta", "--m", "2", "--s", "2.5", "--bound", "1e14")
    assert code == 3
    assert "budget" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--grid", "geometric:3", "--bmax", "1e400"),
        ("count", "--bmin", "1e-400", "--bmax", "10"),
    ],
)
def test_geometric_grid_outside_the_float_range_exits_2(capsys, argv):
    # the grid is spaced in floats: 1e400 overflows and 1e-400 rounds to 0
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_geometric_grid_count_that_is_no_integer_names_grid(capsys):
    code, out, err = run(capsys, "count", "--grid", "geometric:x", "--bmax", "100")
    assert (code, out) == (2, "")
    assert err.startswith("error: --grid geometric:x") and "Traceback" not in err


def test_fit_names_the_file_and_line_of_a_bad_cell(tmp_path, capsys):
    csv = tmp_path / "counts.csv"
    csv.write_text("B,n_rational,n_campana,n_darmon\n10,127,55,45\n\n100,12175,x,1247\n")
    code, out, err = run(capsys, "fit", str(csv), "--a", "1", "--b", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {csv}, line 4: ") and "'x'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--grid", "10"),
        ("constant", "--method", "truncated"),
        ("local-factor", "--p", "3", "--s", "2"),
        ("zeta", "--bound", "10", "--s", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_dimension_past_the_index_range_exits_2(capsys, argv):
    # (0,) * n in the model's stratum table cannot take n = 1e20
    n = "99999999999999999999"
    code, out, err = run(capsys, argv[0], "--model", "pn", "--n", n, *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: --n {n} is too large\n"


def test_count_of_a_huge_weight(capsys):
    # m = 1e7: every integer root of the count is 1, found without raising
    # a Newton guess to the power m - 1 (seconds before)
    code, out, _ = run(capsys, "count", "--model", "p1", "--m", "10000000",
                       "--mode", "darmon", "--grid", "100")
    assert code == 0 and out.splitlines()[1] == "100,,,201"


@pytest.mark.parametrize(
    "argv",
    [
        ("zeta", "--bound", "10", "--s", "nan"),
        ("zeta", "--bound", "10", "--probe", "inf,nan"),
        ("fit", "{csv}", "--a", "nan", "--b", "1"),
        ("fit", "{csv}", "--a", "inf", "--b", "1"),
        ("fit", "{csv}", "--a", "1e400", "--b", "1"),
        ("fit", "{csv}", "--a", "2", "--b", "1", "--window", "10,1e400"),
        ("local-factor", "--p", "3", "--s", "inf"),
        ("local-factor", "--p", "3", "--s", "1e400"),
    ],
)
def test_non_finite_float_flags_exit_2(tmp_path, capsys, argv):
    # JSON has no NaN or Infinity, so these are refused before any output
    csv = tmp_path / "counts.csv"
    csv.write_text("B,n_rational,n_campana,n_darmon\n10,127,55,45\n100,12175,1647,1247\n")
    code, out, err = run(capsys, *(a.format(csv=csv) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("zeta", "--bound", "10", "--s", "x"), "--s"),
        (("zeta", "--bound", "10", "--s", ""), "--s"),
        (("zeta", "--bound", "10", "--probe", ","), "--probe"),
        (("zeta", "--bound", "10", "--probe", "2,,3"), "--probe"),
        (("local-factor", "--p", "3", "--s", "x"), "--s"),
    ],
)
def test_unparsed_float_flags_exit_2_naming_the_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must be a finite number, got ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("count", "--s", "x", "--grid", "10"), "--s"),
        (("count", "--s", "2,,3", "--grid", "10"), "--s"),
        (("classify", "--s", "2;3", "1/2"), "--s"),
        (("zeta", "--bound", "10", "--s", "2", "--s-primes", "y"), "--s-primes"),
    ],
)
def test_unparsed_prime_flags_exit_2_naming_the_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must be a comma list of primes, got ")
    assert "Traceback" not in err


def test_local_factor_refuses_a_place_set(capsys):
    # local-factor takes membership of S as --in-s; it has no --s-primes to ignore
    with pytest.raises(SystemExit) as exc:
        main(["local-factor", "--p", "2", "--s", "2", "--s-primes", "2"])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("zeta", "--m", "2", "--s", "-60", "--bound", "1e6"),
        ("zeta", "--m", "2", "--s", "-400", "--bound", "1e6"),
        ("zeta", "--model", "blowup", "--s", "-400", "--bound", "1e3"),
        ("zeta", "--m", "1", "--probe", "2.5,-300", "--bound", "1e3"),
    ],
)
def test_zeta_past_the_float_range_exits_2(capsys, argv):
    # n^-s passes the float range: one error line, no NaN and no traceback
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: the height-zeta sum") and err.count("\n") == 1


@pytest.mark.parametrize("mode", ["darmon", "campana"])
@pytest.mark.parametrize("s", ["1e29", "1e308"])
def test_zeta_at_huge_s_is_the_count_at_height_one(capsys, mode, s):
    # only the three points of height 1 are left; the line sum's
    # Euler-Maclaurin coefficients overflow there and must not make it NaN
    code, out, err = run(capsys, "zeta", "--m", "2", "--s", s, "--bound", "100", "--mode", mode)
    assert code == 0 and err == ""
    assert json.loads(out)["value"] == 3.0


@pytest.mark.parametrize("mode", ["darmon", "campana"])
def test_zeta_probe_reaching_huge_s_exits_0(capsys, mode):
    code, out, err = run(
        capsys, "zeta", "--m", "2", "--probe", "2.5,1e29", "--bound", "100", "--mode", mode
    )
    assert code == 0 and err == ""
    probe = json.loads(out)["probe"]
    assert probe[1] == {"s": 1e29, "value": 3e29}  # (s - a)^b times 3


@pytest.mark.parametrize("mode", ["darmon", "campana"])
def test_zeta_probe_past_the_float_range_exits_2(capsys, mode):
    # (s - a)^b times the sum passes the float range at s = 1e308; JSON has
    # no Infinity, so the probe is refused and names the s
    code, out, err = run(
        capsys, "zeta", "--m", "2", "--probe", "2.5,1e29,1e308", "--bound", "100",
        "--mode", mode,
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "s = 1e+308" in err
    assert "Traceback" not in err and err.count("\n") == 1


def test_failed_allocation_exits_3(capsys):
    # the height-zeta line sum would ask for a 1e17-entry array (800 PB); the
    # budget refuses it first
    code, _, err = run(
        capsys, "zeta", "--model", "p1", "--m", "1", "--probe", "2.5", "--bound", "1e17"
    )
    assert code == 3
    assert err.startswith("error:") and "Traceback" not in err
    # past int64 the Mertens sieve raises MemoryError, whatever the budget
    code, _, err = run(
        capsys, "count", "--model", "p1", "--m", "1", "--mode", "rational",
        "--grid", "1e17", "--budget", "10000000000000",
    )
    assert code == 3
    assert err.startswith("error: out of memory") and "Traceback" not in err


def test_blowup_weight_past_float_range(capsys):
    # B^(m1 m2) = 10^400 no longer fits a float; the counts match the oracle
    code, out, err = run(
        capsys, "count", "--model", "blowup", "--m1", "1", "--m2", "400", "--grid", "10"
    )
    assert code == 0 and "Traceback" not in err
    assert out.splitlines()[1] == "10,129,73,73"
    code, out, err = run(
        capsys,
        "zeta",
        "--model",
        "blowup",
        "--m1",
        "1",
        "--m2",
        "400",
        "--bound",
        "10",
        "--s",
        "3",
    )
    assert code == 0 and "Traceback" not in err
    assert json.loads(out)["value"] > 0


def test_line_count_past_float_range(capsys):
    # B = 10^400 passes the float range, so the shape roots and the block
    # sizes of the divisor sum take the exact integer route.  The Darmon q
    # are 2^e a^200 with a odd and a <= 100; the q = 2^e a^200 with e >= 1
    # share rad q = 2 rad a, and q = a^200 has rad a: the direct sum of
    # sum_{e | rad q} mu(e) (2 floor(B/e) + 1) over them, in Python ints
    code, out, err = run(
        capsys, "count", "--model", "p1", "--m", "200", "--s", "2", "--grid", "1e400",
        "--mode", "darmon",
    )
    assert code == 0 and "Traceback" not in err
    B, expected = 10**400, 0
    odd_primes = [p for p in range(3, 100, 2) if all(p % r for r in range(3, p, 2))]
    for a in range(1, 101, 2):
        primes = [p for p in odd_primes if a % p == 0]
        powers_of_2 = (B // a**200).bit_length() - 1  # e >= 1 with 2^e a^200 <= B
        for rad, copies in ((primes, 1), ([2] + primes, powers_of_2)):
            per_q = 0
            for subset in range(1 << len(rad)):
                e = 1
                for j, p in enumerate(rad):
                    if subset >> j & 1:
                        e *= -p
                per_q += (1 if e > 0 else -1) * (2 * (B // abs(e)) + 1)
            expected += copies * per_q
    assert out.splitlines()[1] == f"1e400,,,{expected}"


def test_classify_line_point(capsys):
    code, out, _ = run(capsys, "classify", "--model", "p1", "--m", "2", "4/9")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_darmon"] is True
    assert payload["global_height"] == 9.0
    assert payload["multiplicities"]["3"]["D"] == 2


def test_classify_blowup_point(capsys):
    code, out, _ = run(
        capsys, "classify", "--model", "blowup", "--m1", "2", "--m2", "1", "1/4,3/2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["is_darmon"] is True


def test_classify_parse_error_and_boundary(capsys):
    code, _, err = run(capsys, "classify", "--model", "p1", "1/0")
    assert code == 2
    code, _, err = run(capsys, "classify", "--model", "p1", "1:0")
    assert code == 2
    assert "boundary" in err


def test_constant_line(capsys):
    code, out, _ = run(capsys, "constant", "--model", "p1", "--m", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["count_coefficient"] == pytest.approx(2 / ZETA2, rel=1e-10)
    assert payload["total"] == pytest.approx(2 * 2 / ZETA2, rel=1e-10)
    expected_keys = {
        "model",
        "params",
        "s_primes",
        "a",
        "a_exact",
        "b",
        "residue_factors",
        "finite_product",
        "tail_bound",
        "archimedean",
        "s_factors",
        "total",
        "count_coefficient",
    }
    assert set(payload) == expected_keys


@pytest.mark.parametrize("n", ["1015", "1024", "3000"])
@pytest.mark.parametrize("method", [("--method", "exact"),
                                    ("--method", "truncated", "--p0", "100")])
def test_constant_past_the_float_range_exits_2(capsys, n, method):
    # 2^n (1 + n m) passes the float range from n = 1015 on, and 2.0**n
    # itself from 1024: one error line, no Infinity and no traceback
    code, out, err = run(capsys, "constant", "--model", "pn", "--m", "1", "--n", n, *method)
    assert code == 2 and out == ""
    assert err.startswith("error: the leading constant") and err.count("\n") == 1


def test_constant_paper_values_flag(capsys):
    code, out, _ = run(
        capsys, "constant", "--model", "blowup", "--paper-values", "--p0", "10000"
    )
    assert code == 0
    payload = json.loads(out)
    assert "paper_values" in payload
    assert payload["paper_values"]["archimedean_reference"] == 4.0
    code, out, _ = run(
        capsys, "constant", "--model", "p1", "--m", "2", "--paper-values", "--p0", "10000"
    )
    payload = json.loads(out)
    assert "campana_coefficient" in payload["paper_values"]


def test_constant_paper_values_never_integrate(capsys, monkeypatch):
    argvs = [
        ("constant", "--model", "p1", "--m", "2", "--paper-values", "--p0", "10000"),
        ("constant", "--model", "blowup", "--paper-values", "--p0", "10000"),
    ]
    expected = [run(capsys, *argv) for argv in argvs]

    def no_quad(*args, **kwargs):
        raise AssertionError("the constant path integrated")

    monkeypatch.setattr(mpmath, "quad", no_quad)
    for argv, want in zip(argvs, expected):
        assert run(capsys, *argv) == want


def test_parser_built_once_and_reused(tmp_path, capsys):
    # main builds its parser on the first call and reuses it; a parse must
    # leave it as it was, so each output equals a run on a freshly built one
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid=100\nmode=darmon\nm=2\n")
    argvs = [
        ("count", "--model", "p1", "--m", "2", "--grid", "10,100"),
        ("count", "--config", str(cfg)),
        ("count", "--config", str(cfg), "--gri", "50"),
        ("zeta", "--m", "2", "--s", "2.5", "--bound", "100"),
        ("count", "--mode", "nonsense"),
        ("local-factor", "--m", "2", "--s", "2", "--p", "3", "--in-s"),
        ("count", "--model", "p1", "--m", "2", "--grid", "10,100"),
    ]
    cli._build_parser.cache_clear()
    reused = [_run_catching_exit(capsys, argv) for argv in argvs]
    assert cli._build_parser.cache_info().misses == 1
    for argv, got in zip(argvs, reused):
        cli._build_parser.cache_clear()
        assert _run_catching_exit(capsys, argv) == got
    assert reused[1][1].splitlines()[1:] == ["100,,,1247"]
    assert reused[4][0] == 2
    assert reused[-1] == reused[0]


def _run_catching_exit(capsys, argv):
    try:
        return run(capsys, *argv)
    except SystemExit as exc:  # argparse refuses the flags
        out = capsys.readouterr()
        return exc.code, out.out, out.err


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import orbicount.cli, sys; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ("--method", "truncated"),
        ("--method", "exact", "--paper-values"),
    ],
)
def test_constant_prime_cutoff_contract(capsys, argv):
    base = ("constant", "--model", "p1", "--m", "2") + argv
    for p0, want in (("0", 2), ("-5", 2), ("1000000000000", 3)):
        code, out, err = run(capsys, *base, "--p0", p0)
        assert code == want and out == ""
        assert err.startswith("error:") and "Traceback" not in err
    assert "budget" in err and "Euler product up to p0 = 1000000000000" in err
    # p0 = 1: the empty product, with a positive tail bound
    code, out, err = run(capsys, *base, "--p0", "1")
    assert code == 0 and "Traceback" not in err
    payload = json.loads(out)
    if "paper_values" in payload:
        assert payload["paper_values"]["campana_tail_bound"] > 0
    else:
        assert payload["finite_product"] == 1.0 and payload["tail_bound"] > 0


def test_local_factor_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "local-factor",
        "--model",
        "p1",
        "--m",
        "1",
        "--p",
        "2",
        "--s",
        "2",
        "--depth",
        "60",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form"] == pytest.approx(1.5, rel=1e-12)
    assert payload["oracle"] == pytest.approx(1.5, rel=1e-12)
    assert payload["oracle_bound"] < 1e-10
    assert set(payload) >= {"p", "s", "closed_form", "denef", "oracle", "oracle_bound"}


@pytest.mark.parametrize(
    "argv",
    [
        # 8.0e6 terms of about 4 us each (33.6 s), charged 1.6e9 steps
        ("--model", "blowup", "--m1", "1", "--m2", "1", "--depth", "4000"),
        # 1e8 terms, charged 2e10 steps
        ("--model", "p1", "--m", "2", "--depth", "100000000"),
    ],
)
def test_runaway_local_factor_depth_exits_3_at_once(capsys, monkeypatch, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("summed shells before the depth was charged")

    monkeypatch.setattr(localfactors, "_shell_blowup", unreachable)
    monkeypatch.setattr(localfactors, "_shell_projective", unreachable)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "local-factor", *argv, "--p", "2", "--s", "2")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error:") and "budget" in err and err.count("\n") == 1
    assert "shell-sum oracle at depth" in err


def test_local_factor_depth_below_ten_exits_2(capsys):
    code, out, err = run(capsys, "local-factor", "--m", "2", "--p", "2", "--s", "2",
                         "--depth", "5")
    assert code == 2 and out == ""
    assert err == "error: oracle depth must be at least 10\n"


def test_count_without_a_digit_limit(capsys, monkeypatch):
    # Python 3.10.0 to 3.10.6 have no sys.get_int_max_str_digits, and no limit
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    code, out, err = run(capsys, "count", "--model", "p1", "--m", "2", "--grid", "100")
    assert code == 0 and err == ""
    assert out.splitlines() == ["B,n_rational,n_campana,n_darmon", "100,12175,1647,1247"]


@pytest.mark.parametrize("p", ["0", "1", "-3", "4"])
def test_local_factor_rejects_nonprime_p(capsys, p):
    code, out, err = run(
        capsys, "local-factor", "--model", "p1", "--m", "2", "--p", p, "--s", "2"
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_count_fit_roundtrip(tmp_path, capsys):
    csv_path = tmp_path / "counts.csv"
    code, _, _ = run(
        capsys,
        "count",
        "--model",
        "p1",
        "--m",
        "1",
        "--grid",
        "100,1e3,1e4",
        "--mode",
        "darmon",
        "--output",
        str(csv_path),
    )
    assert code == 0
    # bounds echo as given (scientific notation preserved)
    assert csv_path.read_text().splitlines()[2].startswith("1e3,")
    code, out, _ = run(
        capsys, "fit", str(csv_path), "--a", "2", "--b", "1", "--column", "darmon"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficient"] == pytest.approx(2 / ZETA2, rel=0.02)
    assert set(payload) == {
        "c_hat",
        "coefficient",
        "a",
        "b",
        "residual",
        "window",
        "n_points",
    }


def test_zeta_subcommand(capsys):
    code, out, _ = run(
        capsys, "zeta", "--model", "p1", "--m", "1", "--s", "3", "--bound", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 3.0
    code, out, _ = run(
        capsys,
        "zeta",
        "--model",
        "p1",
        "--m",
        "1",
        "--bound",
        "1000",
        "--probe",
        "2.5,2.2",
    )
    payload = json.loads(out)
    assert len(payload["probe"]) == 2
    assert all(entry["value"] > 0 for entry in payload["probe"])


def test_workers_identical_output(capsys):
    args = [
        "count",
        "--model",
        "blowup",
        "--grid",
        "200,400",
        "--mode",
        "rational",
    ]
    _, out1, _ = run(capsys, *args, "--workers", "1")
    _, out2, _ = run(capsys, *args, "--workers", "2")
    _, out8, _ = run(capsys, *args, "--workers", "8")
    assert out1 == out2 == out8


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=2\nmode=darmon\ngrid=10\n")
    code, out, _ = run(capsys, "count", "--model", "p1", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[1] == "10,,,45"
    # explicit flag beats the config value
    code, out, _ = run(
        capsys, "count", "--model", "p1", "--config", str(cfg), "--m", "3"
    )
    assert out.splitlines()[1] == "10,,,31"  # q in {1, 8}


def run_config(tmp_path, capsys, text, *argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return run(capsys, *argv, "--config", str(cfg))


@pytest.mark.parametrize("text", ["func=x\n", "p0=5\n", "s_value=3\n"])
def test_config_key_without_a_flag_is_ignored(tmp_path, capsys, text):
    # func is an attribute of the parsed namespace, not a flag; p0 is a flag of
    # constant, not of count; s_value is a destination, not a flag name
    code, out, err = run_config(tmp_path, capsys, text + "grid=10\n", "count")
    assert code == 0 and "Traceback" not in err
    assert out.splitlines()[1] == "10,127,127,127"


@pytest.mark.parametrize(
    "text, argv",
    [
        ("column=junk\n", ("fit", "{csv}", "--a", "2", "--b", "1")),
        ("format=xml\ngrid=10\n", ("count",)),
        ("m=two\ngrid=10\n", ("count",)),
    ],
)
def test_config_value_refused_like_the_flag(tmp_path, capsys, text, argv):
    csv = tmp_path / "counts.csv"
    csv.write_text("B,n_rational,n_campana,n_darmon\n10,127,55,45\n")
    with pytest.raises(SystemExit) as exc:
        run_config(tmp_path, capsys, text, *(a.format(csv=csv) for a in argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --" in err and "Traceback" not in err


def test_config_before_the_subcommand_exits_2(tmp_path, capsys):
    # --config is a flag of each subcommand, not of the program
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid=10\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "count"])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("form", [("--conf", "{cfg}"), ("--config={cfg}",),
                                  ("--co={cfg}",), ("--c", "{cfg}")])
def test_config_abbreviated_or_joined_reads_the_file(tmp_path, capsys, form):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=2\nmode=darmon\ngrid=10,100\n")
    typed = run(capsys, "count", "--model", "p1", "--m", "2", "--mode", "darmon",
                "--grid", "10,100")
    assert typed[0] == 0 and typed[1].splitlines()[1:] == ["10,,,45", "100,,,1247"]
    argv = [a.format(cfg=cfg) for a in form]
    assert run(capsys, "count", "--model", "p1", *argv) == typed
    assert run(capsys, "count", *argv, "--model", "p1") == typed


def test_argv_without_a_config_token_skips_the_finder(tmp_path, capsys, monkeypatch):
    # argparse can read --config only from a token that starts with "--c";
    # any other argv is parsed once, as typed
    seen = []
    real = cli._CONFIG_FINDER.parse_known_args

    def spy(argv):
        seen.append(list(argv))
        return real(argv)

    monkeypatch.setattr(cli._CONFIG_FINDER, "parse_known_args", spy)
    for argv in (["count", "--model", "p1", "--m", "2", "--grid", "10"],
                 ["count", "--model", "blowup", "--grid", "10", "--format", "json"],
                 ["zeta", "--m", "2", "--s", "2.5", "--bound", "100"],
                 ["classify", "--model", "p1", "--m", "2", "3/4"]):
        assert run(capsys, *argv)[0] == 0
    assert seen == []
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid=10\n")
    for argv in (["count", "--conf", str(cfg)], ["count", "--config=" + str(cfg)]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.splitlines()[1] == "10,127,127,127"
    assert seen == [["count", "--conf", str(cfg)], ["count", "--config=" + str(cfg)]]
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "count"])
    assert exc.value.code == 2 and len(seen) == 3


def test_config_line_without_equals_exits_2(tmp_path, capsys):
    code, out, err = run_config(tmp_path, capsys, "grid\n", "count")
    assert code == 2 and out == ""
    assert err.startswith("error: bad config line")


@pytest.mark.parametrize(
    "text, argv",
    [("s=2.5\nbound=100\n", ()), ("s=2.5\n", ("--bound", "100"))],
)
def test_config_supplies_s_and_the_required_bound(tmp_path, capsys, text, argv):
    code, out, _ = run_config(tmp_path, capsys, text, "zeta", "--m", "2", *argv)
    assert code == 0
    _, typed, _ = run(capsys, "zeta", "--m", "2", "--s", "2.5", "--bound", "100")
    assert out == typed
    assert json.loads(out)["s"] == 2.5


def test_abbreviated_flag_beats_config(tmp_path, capsys):
    code, out, _ = run_config(
        tmp_path, capsys, "grid=5\nmode=darmon\n", "count", "--gri", "100"
    )
    assert code == 0
    assert out.splitlines()[1:] == ["100,,,12175"]


@pytest.mark.parametrize(
    "line, in_s",
    [("in_s=yes", True), ("in-s=True", True), ("in_s=1", True), ("in_s=no", False)],
)
def test_config_boolean_flag(tmp_path, capsys, line, in_s):
    argv = ("local-factor", "--m", "2", "--s", "2", "--p", "3")
    code, out, _ = run_config(tmp_path, capsys, line + "\n", *argv)
    assert code == 0
    assert json.loads(out)["in_s"] is in_s
    _, typed, _ = run(capsys, *argv, *(("--in-s",) if in_s else ()))
    assert out == typed


def test_dump_flag(tmp_path, capsys):
    dump = tmp_path / "pts.txt"
    code, _, _ = run(
        capsys,
        "count",
        "--model",
        "p1",
        "--m",
        "2",
        "--grid",
        "10",
        "--mode",
        "darmon",
        "--dump",
        str(dump),
    )
    assert code == 0
    assert len(dump.read_text().strip().splitlines()) == 45


def test_dump_under_mode_all_writes_the_darmon_points(tmp_path, capsys):
    # the CSV holds all three modes, the dump one point set: Darmon's
    dumps = {}
    for mode in ("all", "darmon"):
        dumps[mode] = tmp_path / f"{mode}.txt"
        code, _, _ = run(capsys, "count", "--model", "p1", "--m", "2", "--grid", "30",
                         "--mode", mode, "--dump", str(dumps[mode]))
        assert code == 0
    assert dumps["all"].read_bytes() == dumps["darmon"].read_bytes() != b""


@pytest.mark.parametrize("mode, cap_error", [
    ("darmon", None),
    ("rational", "error: 1216767 points exceed the dump cap 1000000\n"),
])
def test_dump_takes_its_cap_check_from_the_printed_count(tmp_path, capsys, monkeypatch,
                                                          mode, cap_error):
    # one count serves the CSV and the dump's cap: dump_points runs once,
    # handed count_points' count, and writes that many points
    m = "2" if mode == "darmon" else "1"
    calls, totals = [], []
    count_grid, dump_points = enumeration._count_grid, enumeration.dump_points

    def counted(*args):
        calls.append(args[2])
        return count_grid(*args)

    def dumped(*args):
        totals.append(args[5])  # the count the cap is checked against
        return dump_points(*args)

    monkeypatch.setattr(enumeration, "_count_grid", counted)
    monkeypatch.setattr(enumeration, "dump_points", dumped)
    dump = tmp_path / "pts.txt"
    code, out, err = run(capsys, "count", "--model", "p1", "--m", m, "--mode", mode,
                         "--grid", "1000", "--dump", str(dump))
    assert len(calls) == 1
    assert totals == [enumeration.count_points(projective_space(1, int(m)), PlaceSet.of(),
                                               1000, mode)]
    if cap_error:
        assert (code, out, err) == (3, "", cap_error)
        assert dump.read_text() == ""
        return
    assert code == 0
    assert totals == [enumeration.read_counts_csv(io.StringIO(out))[0][f"n_{mode}"]]
    assert len(dump.read_text().splitlines()) == totals[0] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ("--model", "p1", "--m", "50", "--mode", "darmon", "--grid", "400000"),
        ("--model", "blowup", "--m1", "5", "--m2", "5", "--mode", "darmon", "--grid", "3000"),
    ],
)
def test_dump_past_the_budget_exits_3_before_writing(tmp_path, capsys, monkeypatch, argv):
    # 800,001 and 30,463 points pass the cap, but the oracle's box holds
    # 3.2e11 and 2.0e9 candidates: the charge refuses before the first one
    def refuse(*args):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(enumeration, "_candidates", refuse)
    dump = tmp_path / "pts.txt"
    code, out, err = run(capsys, "count", *argv, "--dump", str(dump))
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: the dump's oracle over")
    assert dump.read_text() == ""


def test_dump_is_charged_to_the_count_budget(tmp_path, capsys):
    # the box at B = 10 holds 10 * 21 candidates, 300 steps each: 63,000
    argv = ("count", "--model", "p1", "--m", "2", "--mode", "darmon", "--grid", "10")
    dump = tmp_path / "pts.txt"
    code, _, err = run(capsys, *argv, "--budget", "62999", "--dump", str(dump))
    assert code == 3 and err.startswith("error: the dump's oracle over 210 candidates")
    assert dump.read_text() == ""
    code, _, _ = run(capsys, *argv, "--budget", "63000", "--dump", str(dump))
    assert code == 0
    assert len(dump.read_text().splitlines()) == 45
