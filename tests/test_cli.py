import contextlib
import io
import json
import os
import re
import select
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainpoly import (
    CoxeterType,
    Poly,
    Poset,
    chain_polynomial,
    is_real_rooted,
    nc_chain_polynomial,
    nc_h_formula,
    symmetric_decomposition,
)
from chainpoly import cli
from chainpoly.cli import main

SQUARE = str(Path(__file__).parent / "golden" / "square.json")
SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ant_basic(capsys):
    # "١,٢" is 1,2 in Arabic-Indic digits
    for t in ("1,2", "١,٢"):
        code, out, _ = run_cli(capsys, "ant", "3", t)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "1,4,1"
        assert "real-rooted=yes" in lines
        assert "mode=1" in lines
        assert "mu=1" in lines


def test_ant_empty_set(capsys):
    code, out, _ = run_cli(capsys, "ant", "4", "-")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_ant_gessel_match(capsys):
    code, out, _ = run_cli(capsys, "ant", "6", "2,4", "--gessel")
    assert code == 0
    assert "gessel=match" in out.splitlines()


def test_ant_gessel_at_scale(capsys):
    full = ",".join(str(i) for i in range(1, 30))
    code, out, _ = run_cli(capsys, "ant", "30", full, "--gessel")
    assert code == 0
    assert "gessel=match" in out.splitlines()


def test_ant_gessel_n_zero(capsys):
    code, out, _ = run_cli(capsys, "ant", "0", "-", "--gessel")
    assert code == 0
    assert out.splitlines()[0] == "1"
    assert "gessel=match" in out.splitlines()


def test_ant_colored(capsys):
    code, out, _ = run_cli(capsys, "ant", "2", "1,2", "--colored", "2")
    assert code == 0
    assert out.splitlines()[0] == "1,6,1"


def test_ant_colored_brute_agrees(capsys):
    code, fast, _ = run_cli(capsys, "ant", "3", "1,3", "--colored", "3")
    code2, brute, _ = run_cli(capsys, "ant", "3", "1,3", "--colored", "3", "--brute")
    assert code == code2 == 0
    assert fast.splitlines()[0] == brute.splitlines()[0]


def test_ant_domain_error(capsys):
    # "²" is a digit to str.isdigit() that int() rejects
    for argv in (
        ["ant", "3", "0,2"],
        ["ant", "3", "²"],
        ["poset", SQUARE, "--rank-select", "²"],
        ["ant", "-1", "-", "--brute"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out.splitlines()[-1].startswith("error="), argv


def test_ant_brute_cap(capsys):
    code, out, _ = run_cli(capsys, "ant", "12", "1", "--brute", "--max-enum", "1000")
    assert code == 3
    assert "error=" in out
    code, out, _ = run_cli(capsys, "ant", "11", "-", "--brute")
    assert code == 3
    assert out == "error=n! * r^n exceeds the enumeration cap 10000000\n"


# n! past the digits Python will print, and n far past any product the cap
# lets through: the cap stops the product factor by factor
@pytest.mark.parametrize("n", ["2000", "10000000"])
def test_ant_brute_cap_huge_n(capsys, tmp_path, n):
    code, out, err = run_cli(capsys, "ant", n, "-", "--brute")
    assert (code, out) == (3, "error=n! * r^n exceeds the enumeration cap 10000000\n")
    assert "Traceback" not in err
    batch = tmp_path / "batch.txt"
    batch.write_text("\n".join(json.dumps(line) for line in [
        ["ant", n, "-", "--brute"], ["ant", "3", "1,2"],
    ]) + "\n")
    code, out, err = run_cli(capsys, "--batch", str(batch))
    assert code == 3 and "Traceback" not in err
    records = [json.loads(l) for l in out.strip().splitlines()]
    assert records[0] == {
        "error": "n! * r^n exceeds the enumeration cap 10000000", "exit": 3,
    }
    assert (records[1]["coefficients"], records[1]["exit"]) == ([1, 4, 1], 0)


def test_nc_h3(capsys):
    code, out, _ = run_cli(capsys, "nc", "H3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1,28,21"
    assert "chain=1,32,111,130,50" in lines
    assert "peak-ok=yes" in lines


def test_nc_oracle_match(capsys):
    code, out, _ = run_cli(capsys, "nc", "A3", "--oracle")
    assert code == 0
    assert "oracle=match" in out.splitlines()


def test_nc_oracle_counts_chains_once(capsys, monkeypatch):
    """The oracle counts the lattice's chains once and builds no proper part."""
    calls = []

    def counting(poset):
        calls.append(len(poset))
        return chain_polynomial(poset)

    def proper_part(self):
        raise AssertionError("proper part built")

    monkeypatch.setattr("chainpoly.cli.chain_polynomial", counting)
    monkeypatch.setattr(Poset, "proper_part", proper_part)
    code, out, _ = run_cli(capsys, "nc", "B4", "--oracle")
    assert code == 0
    assert "oracle=match" in out.splitlines()
    assert calls == [70]  # the whole lattice: the Catalan number of B4


def test_nc_oracle_mismatch(capsys, monkeypatch):
    def chain(t):
        return nc_chain_polynomial(t) + Poly([0, 1])

    monkeypatch.setattr("chainpoly.cli.nc_chain_polynomial", chain)
    code, out, _ = run_cli(capsys, "nc", "A3", "--oracle")
    assert code == 1
    assert "oracle=mismatch" in out.splitlines()


def test_nc_oracle_unavailable(capsys):
    code, out, _ = run_cli(capsys, "nc", "H3", "--oracle")
    assert code == 3


def test_nc_oracle_cap_before_report(capsys, monkeypatch):
    def formula(t):
        raise AssertionError("formula evaluated for %s" % t)

    monkeypatch.setattr("chainpoly.cli.nc_h_formula", formula)
    monkeypatch.setattr("chainpoly.cli.nc_chain_polynomial", formula)
    for name in ("A40", "H3"):
        code, out, _ = run_cli(capsys, "nc", name, "--oracle")
        assert code == 3
        lines = out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error="), name


@pytest.mark.parametrize("name", ["A7", "B6", "D6"])
def test_nc_oracle_largest_under_cap(capsys, name):
    code, out, _ = run_cli(capsys, "nc", name, "--oracle")
    assert code == 0
    assert "oracle=match" in out.splitlines()


OVERFLOW_LINES = [
    ["certify", "1,1", "--symdec", "99999999999999999999"],
    ["nc", "A99999999999999999999"],
    ["words", "e", "2", "99999999999999999999"],
    ["words", "etilde", "2", "99999999999999999999"],
]


@pytest.mark.parametrize("argv", OVERFLOW_LINES)
def test_overflow_exits_3(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 3
    assert out.splitlines()[-1].startswith("error=")


# group orders past the digits Python will print
UNPRINTABLE_ORDER_LINES = [["nc", "A1700", "--oracle"], ["nc", "B2000000", "--oracle"]]


@pytest.mark.parametrize("argv", UNPRINTABLE_ORDER_LINES)
def test_unprintable_group_order_exits_3(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 3
    expected = "error=group of type %s exceeds the cap 50000" % argv[1]
    assert out.splitlines()[-1] == expected


def test_batch_survives_overflow(tmp_path, capsys):
    lines = OVERFLOW_LINES + UNPRINTABLE_ORDER_LINES + [["nc", "H3"]]
    batch = tmp_path / "batch.txt"
    batch.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    code, out, _ = run_cli(capsys, "--batch", str(batch))
    assert code == 3
    records = [json.loads(l) for l in out.strip().splitlines()]
    assert [r["exit"] for r in records] == [3] * (len(lines) - 1) + [0]
    assert all("error" in r for r in records[:-1])
    assert records[-1]["coefficients"] == [1, 28, 21]


# 8e15 bytes of coefficient slots: past any 47-bit address space, so the
# allocation fails at once
OUT_OF_MEMORY = ["certify", "1,2,1", "--symdec", "1000000000000000"]


def test_memory_error_exits_3(capsys):
    code, out, err = run_cli(capsys, *OUT_OF_MEMORY)
    assert code == 3
    assert out.splitlines()[-1] == "error=out of memory"
    assert "Traceback" not in out + err


def test_batch_survives_memory_error(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text("\n".join(json.dumps(line) for line in [
        OUT_OF_MEMORY, ["ant", "3", "1,2"],
    ]) + "\n")
    code, out, _ = run_cli(capsys, "--batch", str(batch))
    assert code == 3
    records = [json.loads(l) for l in out.strip().splitlines()]
    assert (records[0]["error"], records[0]["exit"]) == ("out of memory", 3)
    assert (records[1]["coefficients"], records[1]["exit"]) == ([1, 4, 1], 0)


# the shifted part sums the coefficients: one digit past what str() prints
HUGE = "9" * 4300
UNPRINTABLE_RESULT = ["certify", ",".join([HUGE] * 4 + ["0", "0"]), "--symdec", "5"]
UNPRINTABLE_ERROR = "unprintable result: an integer of over 4300 digits"


def test_unprintable_result_exits_3(capsys):
    code, out, _ = run_cli(capsys, *UNPRINTABLE_RESULT)
    assert (code, out) == (3, "error=%s\n" % UNPRINTABLE_ERROR)
    code, out, _ = run_cli(capsys, *UNPRINTABLE_RESULT, "--json")
    assert (code, json.loads(out)) == (3, {"error": UNPRINTABLE_ERROR})


def test_batch_survives_unprintable_result(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text("\n".join(json.dumps(line) for line in [
        UNPRINTABLE_RESULT, ["ant", "3", "1,2"],
    ]) + "\n")
    code, out, _ = run_cli(capsys, "--batch", str(batch))
    assert code == 3
    records = [json.loads(l) for l in out.strip().splitlines()]
    assert records[0] == {"error": UNPRINTABLE_ERROR, "exit": 3}
    assert (records[1]["coefficients"], records[1]["exit"]) == ([1, 4, 1], 0)


# one digit string past Python's int() limit in each parsed argument
TOO_LONG = "9" * 5000
TOO_LONG_ARGV = [
    (["nc", "A" + TOO_LONG], "error=type A parameter is too long"),
    (["nc", "I2:" + TOO_LONG], "error=type I2 parameter is too long"),
    (["ant", "3", TOO_LONG], "error=descent position is too long"),
    (["poset", SQUARE, "--rank-select", TOO_LONG], "error=descent position is too long"),
]


@pytest.mark.parametrize("argv,error", TOO_LONG_ARGV)
def test_too_long_integer_exits_2(capsys, argv, error):
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out.splitlines()[-1]) == (2, error)


def test_batch_survives_too_long_integer(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    lines = [argv for argv, _ in TOO_LONG_ARGV] + [["ant", "3", "1,2"]]
    batch.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    code, out, _ = run_cli(capsys, "--batch", str(batch))
    assert code == 2
    records = [json.loads(l) for l in out.strip().splitlines()]
    assert [r["exit"] for r in records] == [2, 2, 2, 2, 0]
    assert [r["error"] for r in records[:4]] == [e[6:] for _, e in TOO_LONG_ARGV]
    assert records[4]["coefficients"] == [1, 4, 1]


def test_nc_symdec(capsys):
    code, out, _ = run_cli(capsys, "nc", "E8", "--symdec")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("1,25071,")
    assert "symdec=yes" in lines
    sym = next(l for l in lines if l.startswith("symmetric-part="))
    coeffs = [int(c) for c in sym.split("=", 1)[1].split(",")]
    assert coeffs == coeffs[::-1]


def test_nc_certifies_only_what_it_prints(capsys, monkeypatch):
    decomposed, certified = [], []

    def decompose(p, n):
        decomposed.append(n)
        return symmetric_decomposition(p, n)

    def real_rooted(p):
        certified.append(p)
        return is_real_rooted(p)

    monkeypatch.setattr("chainpoly.cli.symmetric_decomposition", decompose)
    monkeypatch.setattr("chainpoly.symdecomp.symmetric_decomposition", decompose)
    for module in ("cli", "realroots", "symdecomp"):
        monkeypatch.setattr(f"chainpoly.{module}.is_real_rooted", real_rooted)
    code, out, _ = run_cli(capsys, "nc", "B5")
    assert code == 0 and "symdec=" not in out
    assert decomposed == []
    t = CoxeterType("B", 5)
    assert certified == [nc_h_formula(t)]


@pytest.mark.parametrize("argv,failing", [
    (["nc", "A3"], "nc_reversed_h_identity"),
    (["nc", "A3", "--symdec"], "symmetric_decomposition"),
])
def test_nc_failure_prints_only_the_error(capsys, monkeypatch, argv, failing):
    def fail(*args):
        raise MemoryError

    monkeypatch.setattr("chainpoly.cli." + failing, fail)
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (3, "error=out of memory\n")


# the over-cap brute count would exit 3: the flag pair is checked first
@pytest.mark.parametrize("argv,error", [
    (["ant", "11", "-", "--brute", "--colored", "5", "--gessel"],
     "--gessel applies to the uncolored enumerator"),
    (["certify", "1,3,2", "--symdec", "0"],
     "polynomial degree 2 exceeds decomposition degree 0"),
    (["poset", SQUARE, "--rank-select", "5", "--flags"],
     "selected ranks must lie in 1..1"),
])
def test_failure_prints_only_the_error(capsys, argv, error):
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out) == (2, "error=%s\n" % error)
    code, out, _ = run_cli(capsys, *argv, "--timing", "--json")
    assert code == 2 and list(json.loads(out)) == ["error", "time-ms"]


def test_nc_bad_type(capsys):
    code, out, _ = run_cli(capsys, "nc", "Q7")
    assert code == 2


def test_certify_real_rooted(capsys):
    code, out, _ = run_cli(capsys, "certify", "1,4,1")
    assert code == 0
    assert "real-rooted=yes" in out.splitlines()


def test_certify_not_real_rooted(capsys):
    code, out, _ = run_cli(capsys, "certify", "1,1,1")
    assert code == 1
    assert "real-rooted=no" in out.splitlines()


def test_certify_interlaces(capsys):
    code, out, _ = run_cli(capsys, "certify", "1,1", "--interlaces", "1,4,1")
    assert code == 0
    assert "interlaces=yes" in out.splitlines()


def test_certify_interlaces_failure_exit(capsys):
    code, out, _ = run_cli(capsys, "certify", "1,4,1", "--interlaces", "1,1")
    assert code == 1
    assert "interlaces=no" in out.splitlines()


def test_certify_symdec(capsys):
    code, out, _ = run_cli(capsys, "certify", "1,3,2", "--symdec", "2")
    assert code == 0
    lines = out.splitlines()
    assert "symmetric-part=1,2,1" in lines
    assert "shifted-part=1,1" in lines
    assert "symdec=yes" in lines


def test_certify_symdec_decomposes_once(capsys, monkeypatch):
    import chainpoly.symdecomp as symdecomp

    calls = []
    real = symdecomp.symmetric_decomposition

    def counted(p, n):
        calls.append(n)
        return real(p, n)

    monkeypatch.setattr("chainpoly.cli.symmetric_decomposition", counted)
    monkeypatch.setattr("chainpoly.symdecomp.symmetric_decomposition", counted)
    code, out, _ = run_cli(capsys, "certify", "1,3,2", "--symdec", "2")
    assert code == 0 and "symdec=yes" in out.splitlines()
    assert calls == [2]


def test_certify_bad_poly(capsys):
    code, out, _ = run_cli(capsys, "certify", "1,,2")
    assert code == 2


def test_words(capsys):
    code, out, _ = run_cli(capsys, "words", "e", "2", "2")
    assert code == 0
    assert out.splitlines()[0] == "1,3"
    code, out, _ = run_cli(capsys, "words", "etilde", "1", "2")
    assert code == 0
    assert out.splitlines()[0] == "1,1"
    code, out, _ = run_cli(capsys, "words", "d", "3")
    assert code == 0
    assert out.splitlines()[0] == "1,10,5"


def test_words_domain_error(capsys):
    code, out, _ = run_cli(capsys, "words", "d", "1")
    assert code == 2


def test_poset_file(tmp_path, capsys):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps({
        "elements": ["e", "a", "b", "ab"],
        "covers": [["e", "a"], ["e", "b"], ["a", "ab"], ["b", "ab"]],
    }))
    code, out, _ = run_cli(capsys, "poset", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1,4,5,2"
    assert "graded=yes" in lines
    assert "rank=2" in lines


def test_poset_antichain(tmp_path, capsys):
    path = tmp_path / "anti.json"
    path.write_text(json.dumps({"elements": [1, 2, 3], "covers": []}))
    code, out, _ = run_cli(capsys, "poset", str(path))
    assert code == 0
    assert out.splitlines()[0] == "1,3"
    assert "graded=no" in out.splitlines()


def test_poset_rank_select_and_flags(tmp_path, capsys):
    b3 = {"elements": list(range(8)),
          "covers": [[a, b] for a in range(8) for b in range(8)
                     if (a & b) == a and bin(b ^ a).count("1") == 1]}
    path = tmp_path / "b3.json"
    path.write_text(json.dumps(b3))
    code, out, _ = run_cli(capsys, "poset", str(path), "--rank-select", "1,2", "--flags")
    assert code == 0
    lines = out.splitlines()
    assert "rank-selected-h=1,4,1" in lines
    assert "beta:1,2=1" in lines
    assert "alpha:1,2=6" in lines
    assert "beta:1=2" in lines


def test_poset_flags_need_grading(tmp_path, capsys):
    path = tmp_path / "ungraded.json"
    path.write_text(json.dumps({
        "elements": ["0", "a", "b", "c", "1"],
        "covers": [["0", "a"], ["a", "b"], ["b", "1"], ["0", "c"], ["c", "1"]],
    }))
    code, out, _ = run_cli(capsys, "poset", str(path), "--flags")
    assert code == 2
    assert "error=" in out


def test_poset_parse_error_has_location(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"elements": ["a"],\n "covers": [[}')
    code, out, _ = run_cli(capsys, "poset", str(path))
    assert code == 2
    assert "line" in out


def test_poset_certify_exit(tmp_path, capsys):
    path = tmp_path / "anti.json"
    path.write_text(json.dumps({"elements": [1, 2, 3], "covers": []}))
    code, out, _ = run_cli(capsys, "poset", str(path), "--certify")
    assert code == 0
    assert "real-rooted=yes" in out.splitlines()


def test_json_output(capsys):
    code, out, _ = run_cli(capsys, "ant", "3", "1,2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == [1, 4, 1]
    assert data["real-rooted"] is True
    assert data["mode"] == 1


def test_json_nc(capsys):
    code, out, _ = run_cli(capsys, "nc", "B3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == [1, 16, 10]
    assert data["rank"] == 3


def test_deterministic_output(capsys):
    runs = set()
    for _ in range(3):
        _, out, _ = run_cli(capsys, "nc", "F4", "--symdec")
        runs.add(out)
    assert len(runs) == 1


def test_timing_flag_adds_line(capsys):
    _, out, _ = run_cli(capsys, "ant", "3", "1,2", "--timing")
    timing = [l for l in out.splitlines() if l.startswith("time-ms=")]
    assert len(timing) == 1


def test_batch_mode(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text("\n".join([
        json.dumps(["ant", "3", "1,2"]),
        json.dumps(["certify", "1,1,1"]),
        json.dumps(["nc", "I2:9"]),
    ]) + "\n")
    code, out, _ = run_cli(capsys, "--batch", str(batch))
    assert code == 1  # max of 0, 1, 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 3
    assert lines[0]["coefficients"] == [1, 4, 1]
    assert lines[1]["real-rooted"] is False
    assert lines[2]["coefficients"] == [1, 8]
    assert [l["exit"] for l in lines] == [0, 1, 0]


def test_batch_skips_blank_and_reports_bad_lines(tmp_path, capsys):
    batch = tmp_path / "batch.txt"
    batch.write_text('["ant", "3", "-"]\n\nnot json\n')
    code, out, _ = run_cli(capsys, "--batch", str(batch))
    assert code == 2
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 2
    assert lines[1]["exit"] == 2


def test_batch_survives_bad_poset_ranks(tmp_path, capsys):
    poset = tmp_path / "bad_rank.json"
    poset.write_text(json.dumps({"elements": ["e"], "covers": [], "ranks": {"e": "x"}}))
    batch = tmp_path / "batch.txt"
    batch.write_text("\n".join(json.dumps(line) for line in [
        ["ant", "3", "1,2"], ["poset", str(poset)], ["nc", "H3"],
    ]) + "\n")
    code, out, _ = run_cli(capsys, "--batch", str(batch))
    assert code == 2
    assert [json.loads(l)["exit"] for l in out.strip().splitlines()] == [0, 2, 0]


DEEP_JSON = "[" * 100000 + "]" * 100000
# past Python's int digit limit json.loads raises a plain ValueError
BIG_INT_JSON = '{"elements": [1, %s], "covers": []}' % ("9" * 5000)


def test_poset_undecodable_or_deep_file(tmp_path, capsys):
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"elements": ["\xe9"], "covers": []}')
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    big = tmp_path / "big.json"
    big.write_text(BIG_INT_JSON)
    for path in (undecodable, deep, big):
        code, out, _ = run_cli(capsys, "poset", str(path))
        assert code == 2
        assert out.startswith("error=")


def test_batch_survives_undecodable_and_deep_lines(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    big = tmp_path / "big.json"
    big.write_text(BIG_INT_JSON)
    batch = tmp_path / "batch.txt"
    batch.write_bytes(b"\n".join([
        b'["ant", "3", "1,2"]',
        b'["ant", "3", "\xff"]',
        DEEP_JSON.encode(),
        json.dumps(["poset", str(deep)]).encode(),
        json.dumps(["ant", "3", "²"]).encode(),
        json.dumps(["poset", str(big)]).encode(),
        b'["nc", "H4"]',
    ]) + b"\n")
    code, out, _ = run_cli(capsys, "--batch", str(batch))
    assert code == 2
    records = [json.loads(l) for l in out.strip().splitlines()]
    assert [r["exit"] for r in records] == [0, 2, 2, 2, 2, 2, 0]
    assert "utf-8" in records[1]["error"]
    assert "recursion" in records[2]["error"]
    assert records[6]["coefficients"] == [1, 275, 842, 232]


def test_nul_in_poset_path(tmp_path, capsys):
    # open() raises ValueError, not OSError, on a NUL in the path
    batch = tmp_path / "batch.txt"
    batch.write_text("\n".join(json.dumps(line) for line in [
        ["poset", "a\x00b"], ["poset", "a\x00b", "--flags"], ["ant", "3", "-"],
    ]) + "\n")
    code, out, _ = run_cli(capsys, "--batch", str(batch))
    records = [json.loads(l) for l in out.strip().splitlines()]
    assert code == 2
    assert [r["exit"] for r in records] == [2, 2, 0]
    assert records[0]["error"] == "embedded null byte"


def _batch(tmp_path, capsys, lines):
    """Exit code and records of one batch call over lines."""
    path = tmp_path / "batch.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    code = main(["--batch", str(path)])
    return code, capsys.readouterr().out.splitlines()


def _count_runs(monkeypatch, side_effects=None):
    """The subcommands run, in order; side_effects maps a subcommand to a
    call made before it runs."""
    runs = []
    for name, command in list(cli.COMMANDS.items()):
        def counted(ns, rep, name=name, command=command):
            runs.append(name)
            (side_effects or {}).get(name, lambda: None)()
            return command(ns, rep)
        monkeypatch.setitem(cli.COMMANDS, name, counted)
    return runs


def test_batch_repeat_reuses_its_record(tmp_path, capsys, monkeypatch):
    runs = _count_runs(monkeypatch)
    a, b = ["ant", "3", "1,2"], ["certify", "1,1,1"]
    code, out = _batch(tmp_path, capsys, [a, b, a, b, a + ["--json"], ["ant", "3"], a])
    assert runs == ["ant", "certify", "ant"]  # --json makes another line
    assert code == 2
    assert out[0] == out[2] == out[4] == out[6] and out[1] == out[3]
    assert [json.loads(l)["exit"] for l in out] == [0, 1, 0, 1, 0, 2, 0]
    # the exit 1 of a reused record counts towards the batch exit
    code, out = _batch(tmp_path, capsys, [b, a, b])
    assert code == 1 and out[0] == out[2]


def test_batch_rekeys_a_rewritten_poset_file(tmp_path, capsys, monkeypatch):
    poset = tmp_path / "p.json"
    square = Path(SQUARE).read_bytes()
    chain = json.dumps({"elements": ["0", "1", "2"], "covers": [["0", "1"], ["1", "2"]]})
    writes = iter([lambda: poset.write_text(chain), lambda: poset.write_bytes(square),
                   lambda: poset.write_bytes(square), poset.unlink])
    runs = _count_runs(monkeypatch, {"words": lambda: next(writes)()})
    line, between = ["poset", str(poset), "--flags"], ["words", "d", "4"]
    poset.write_bytes(square)
    code, out = _batch(tmp_path, capsys, [
        line, between, line, between + ["--json"], line, between + ["--timing"], line,
        ["words", "d", "4", "--json", "--timing"], line,
    ])
    records = [json.loads(l) for l in out]
    polys = [r.get("coefficients") for r in records[::2]]
    # square, chain, square again (both records kept), the same bytes
    # rewritten, and then no file at all
    assert polys == [[1, 4, 5, 2], [1, 3, 3, 1], [1, 4, 5, 2], [1, 4, 5, 2], None]
    assert out[4] == out[0] == out[6]
    assert records[8]["exit"] == code == 2
    assert runs == ["poset", "words", "poset", "words", "words", "words", "poset"]


def test_batch_reruns_timing_and_failed_lines(tmp_path, capsys, monkeypatch):
    runs = _count_runs(monkeypatch)
    timing, bad, big = ["ant", "3", "1,2", "--timing"], ["certify", "1,x"], ["nc", "A9", "--oracle"]
    missing = ["poset", str(tmp_path / "missing.json")]
    code, out = _batch(tmp_path, capsys, [timing, bad, big, missing] * 2)
    assert runs == ["ant", "certify", "nc", "poset"] * 2
    assert [json.loads(l)["exit"] for l in out] == [0, 2, 3, 2] * 2
    assert code == 3


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_batch_reads_a_piped_poset_once(tmp_path, capsys):
    # a pipe gives its bytes to one read only: the reuse key and the
    # command must share it
    r, w = os.pipe()
    os.write(w, Path(SQUARE).read_bytes())
    os.close(w)
    try:
        code, out = _batch(tmp_path, capsys, [
            ["poset", "/dev/fd/%d" % r, "--flags", "--certify"],
            ["poset", SQUARE, "--flags", "--certify"],
        ])
    finally:
        os.close(r)
    piped, plain = (json.loads(l) for l in out)
    assert piped.pop("file") != plain.pop("file")
    assert piped == plain and code == 0


def test_batch_reads_a_failing_poset_once(tmp_path, capsys, monkeypatch):
    # an endless device fills memory on its one read; the error reaches
    # the record without a second read
    reads = []

    def endless(path):
        reads.append(path)
        raise MemoryError

    monkeypatch.setattr(cli, "_read_poset", endless)
    code, out = _batch(tmp_path, capsys, [["poset", "endless"]])
    assert json.loads(out[0]) == {"error": "out of memory", "exit": 3}
    assert code == 3 and reads == ["endless"]


def test_batch_lines_share_one_copy_of_a_file(tmp_path, monkeypatch):
    lines = [["poset", SQUARE], ["poset", SQUARE, "--flags"], ["poset", SQUARE, "--json"]]
    files = {}
    keys = [cli._reuse_key(t, PARSER.parse_args(t), files) for t in lines]
    assert keys[0][1] is keys[1][1] is keys[2][1] and len(files) == 1
    # past the bound the oldest content goes
    other = tmp_path / "chain.json"
    other.write_text(json.dumps({"elements": ["0", "1"], "covers": [["0", "1"]]}))
    monkeypatch.setattr(cli, "_MEMO_SIZE", 1)
    line = ["poset", str(other)]
    cli._reuse_key(line, PARSER.parse_args(line), files)
    assert list(files) == [other.read_bytes()]


def test_batch_keeps_the_newest_records(tmp_path, capsys, monkeypatch):
    a, b, c = ["ant", "3", "1,2"], ["nc", "H3"], ["words", "d", "4"]
    runs = _count_runs(monkeypatch)
    _batch(tmp_path, capsys, [a, b, c, a])
    assert runs == ["ant", "nc", "words"]
    runs.clear()
    monkeypatch.setattr(cli, "_MEMO_SIZE", 2)
    _batch(tmp_path, capsys, [a, b, c, a, c])
    assert runs == ["ant", "nc", "words", "ant"]


def test_batch_refuses_every_nested_batch(tmp_path, capsys):
    # the refusal reads the parsed Namespace, so an abbreviated or joined
    # --batch is refused as the plain one is
    code, out = _batch(tmp_path, capsys, [
        ["--batch", "x", "nc", "A3"], ["--batch=x", "nc", "A3"],
        ["--bat", "x", "nc", "A3"], ["--batch", "x"], ["ant", "3", "1,2"],
    ])
    refusal = {"error": "batch lines cannot nest --batch", "exit": 2}
    assert [json.loads(l) for l in out[:4]] == [refusal] * 4
    assert json.loads(out[4])["coefficients"] == [1, 4, 1]
    assert len(out) == 5 and code == 2


def test_batch_file_that_cannot_be_read(tmp_path, capsys):
    for path in (tmp_path / "missing.jsonl", tmp_path):
        code = main(["--batch", str(path)])
        out = capsys.readouterr().out.splitlines()
        assert code == 2 and len(out) == 1
        assert list(json.loads(out[0])) == ["error"]


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_batch_streams_each_record_as_its_line_arrives():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "chainpoly.cli", "--batch", "/dev/stdin"],
        env={**os.environ, "PYTHONPATH": path},
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    ) as proc:
        try:
            proc.stdin.write(b'["ant", "3", "1,2"]\n')
            proc.stdin.flush()
            # stdin is still open: the record must come before the writer closes
            ready, _, _ = select.select([proc.stdout], [], [], 10)
            assert ready, "no record before stdin closed"
            assert json.loads(proc.stdout.readline())["coefficients"] == [1, 4, 1]
            proc.stdin.close()
            assert proc.wait(10) == 0
        finally:
            proc.kill()


def test_poset_unhashable_element(tmp_path, capsys):
    path = tmp_path / "listy.json"
    path.write_text(json.dumps({"elements": [["a"], "b"], "covers": []}))
    code, out, _ = run_cli(capsys, "poset", str(path))
    assert code == 2
    assert "error=" in out


def test_poset_fractional_rank(tmp_path, capsys):
    path = tmp_path / "frac.json"
    path.write_text(json.dumps(
        {"elements": ["e", "a"], "covers": [["e", "a"]], "ranks": {"e": 0, "a": 1.9}}
    ))
    code, out, _ = run_cli(capsys, "poset", str(path))
    assert code == 2
    assert out.splitlines() == ['error="ranks" values must be integers']


NOT_NAMES = {
    "bottom_true": {"elements": [1, 2], "covers": [[1, 2]], "bottom": True},
    "bottom_float": {"elements": [1, 2], "covers": [[1, 2]], "bottom": 1.0},
    "cover_true": {"elements": [1, 2], "covers": [[True, 2]]},
    "elements_float_null": {"elements": [1.5, None], "covers": []},
}


@pytest.mark.parametrize("case", sorted(NOT_NAMES))
def test_poset_names_are_strings_or_integers(tmp_path, capsys, case):
    # true and 1.0 compare equal to 1, so they would pass for the element 1
    path = tmp_path / "names.json"
    path.write_text(json.dumps(NOT_NAMES[case]))
    assert run_cli(capsys, "poset", str(path)) == (
        2, "error=element names must be strings or integers\n", ""
    )


def test_poset_ranks_keys_collide(tmp_path, capsys):
    data = {"elements": ["1", 1], "covers": [["1", 1]]}
    path = tmp_path / "collide.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "poset", str(path))
    assert (code, out.splitlines()[0]) == (0, "1,2,1")
    path.write_text(json.dumps({**data, "ranks": {"1": 0}}))
    assert run_cli(capsys, "poset", str(path)) == (
        2, """error="ranks" cannot tell '1' from 1\n""", ""
    )


SQUARE_COVERS = [["e", "a"], ["e", "b"], ["a", "ab"], ["b", "ab"]]
SQUARE_RANKS = {"e": 0, "a": 1, "b": 1, "ab": 2}


def _square_file(path, **declared):
    path.write_text(json.dumps(
        {"elements": ["e", "a", "b", "ab"], "covers": SQUARE_COVERS, **declared}
    ))


def test_poset_declared_ranks_match_covers(tmp_path, capsys, monkeypatch):
    argv = ["poset", "square.json", "--rank-select", "1", "--flags", "--certify"]
    monkeypatch.chdir(Path(SQUARE).parent)
    want = run_cli(capsys, *argv)
    monkeypatch.chdir(tmp_path)
    _square_file(tmp_path / "square.json", bottom="e", ranks=SQUARE_RANKS)
    assert run_cli(capsys, *argv) == want


BAD_DECLARATIONS = {
    "off_by_one": ({"ranks": {x: r + 1 for x, r in SQUARE_RANKS.items()}},
                   "error=rank of 'e' is 0 by its covers, declared 1"),
    "missing": ({"ranks": {"e": 0, "a": 1, "b": 1}},
                "error=rank of 'ab' is 2 by its covers, declared none"),
    "bottom": ({"bottom": "a", "ranks": SQUARE_RANKS},
               "error=declared bottom 'a' is not the minimum 'e'"),
}


@pytest.mark.parametrize("case", sorted(BAD_DECLARATIONS))
def test_poset_declared_ranks_disagree(tmp_path, capsys, case):
    declared, error = BAD_DECLARATIONS[case]
    path = tmp_path / "square.json"
    _square_file(path, **declared)
    assert run_cli(capsys, "poset", str(path)) == (2, error + "\n", "")
    batch = tmp_path / "batch.txt"
    batch.write_text("\n".join(json.dumps(line) for line in [
        ["poset", str(path)], ["ant", "3", "1,2"],
    ]) + "\n")
    code, out, _ = run_cli(capsys, "--batch", str(batch))
    records = [json.loads(l) for l in out.strip().splitlines()]
    assert code == 2
    assert records[0] == {"error": error[len("error="):], "exit": 2}
    assert (records[1]["coefficients"], records[1]["exit"]) == ([1, 4, 1], 0)


def test_console_script_entry():
    # the child finds this checkout's package whatever PYTHONPATH held
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "chainpoly.cli", "ant", "3", "1,2"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "1,4,1"


field_text = st.text(alphabet="0123456789,-/ ²①٣", max_size=12)


def _run_main(argv):
    """The exit code and stdout of main(argv); stderr holds no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # an argparse usage error
            code = exc.code
    assert "Traceback" not in err.getvalue(), argv
    return code, out.getvalue()


@given(field_text, field_text)
@settings(max_examples=200, deadline=None)
def test_text_fields_never_crash(t, p):
    for argv in (
        ["ant", "4", t],
        ["poset", SQUARE, "--rank-select", t],
        ["certify", p],
        ["certify", "1,2,1", "--interlaces", p],
        ["certify", p, "--symdec", "3"],
    ):
        assert _run_main(argv)[0] in (0, 1, 2, 3), argv


small = st.sampled_from(["0", "1", "2", "3", "5", "-1", "x", "", "1.5", "٣", "1e3"])
positions = st.sampled_from(["-", "1", "1,2", "2,4", "3,1", "0", "1,,2", "a", ""])
polys = st.sampled_from(["1,2,1", "1,3,1", "1,0,1", "1/2,1", "1,-2", "0", "1/0", "x", ""])
POSITIONALS = {
    "ant": [small, positions],
    "nc": [st.sampled_from(["A3", "B2", "D4", "I2:5", "H3", "E8", "A0", "Q7", "I2:x"])],
    "poset": [st.sampled_from([SQUARE, "no-such-file.json", ""])],
    "certify": [polys],
    "words": [st.sampled_from(["e", "etilde", "d", "f"]), small, small],
    "antt": [],
}
flag = st.one_of(
    st.sampled_from(["--json", "--timing", "--brute", "--gessel", "--oracle",
                     "--symdec", "--flags", "--certify", "--bogus", "--batch",
                     "-h", "--help"]).map(
        lambda f: [f]
    ),
    st.tuples(
        st.sampled_from(["--colored", "--max-enum", "--max-elements", "--symdec",
                         "--rank-select", "--interlaces"]),
        st.one_of(small, positions, polys),
    ).map(list),
)


@st.composite
def argvs(draw):
    """A subcommand, its positionals (now and then too few), and random
    flags."""
    command = draw(st.sampled_from(sorted(POSITIONALS)))
    args = [draw(s) for s in POSITIONALS[command]]
    if draw(st.booleans()):
        args = args[:draw(st.integers(0, len(args)))]
    return [command] + args + sum(draw(st.lists(flag, max_size=4)), [])


@given(argvs())
@settings(max_examples=300, deadline=None)
def test_fuzzed_argv_keeps_the_exit_contract(argv):
    assert _run_main(argv)[0] in (0, 1, 2, 3), argv


def _parsed(parse, tokens):
    """vars() of what parse(tokens) returns, or its SystemExit code, and
    the text it printed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return vars(parse(tokens)), sink.getvalue()
        except SystemExit as exc:
            return exc.code, sink.getvalue()


@st.composite
def line_tokens(draw):
    """An argv with up to two tokens slipped in: help, the end of
    options, a nested or spelled-out --batch, or a subcommand name."""
    argv = draw(argvs())
    for _ in range(draw(st.integers(0, 2))):
        token = draw(st.sampled_from(["-h", "--", "--batch", "--batch=x", "--bat",
                                      "antt", "poset", "nc", "--json"]))
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


PARSER, COMMANDS = cli.build_parser()


@given(line_tokens())
@settings(max_examples=400, deadline=None)
@example(["ant", "--", "3", "1,2"])
@example(["--", "nc", "A3"])
@example(["ant", "3", "1,2", "--batch", "x"])
@example(["--batch=x", "nc", "A3"])
def test_parse_route_matches_the_top_parser(tokens):
    # the same Namespace or exit code, and the same help or usage text; an
    # argv that starts with a subcommand has an unrecognized argument
    # reported by that subcommand's own parser
    route, route_text = _parsed(lambda t: cli._parse_line(PARSER, COMMANDS, t), tokens)
    top, top_text = _parsed(PARSER.parse_args, tokens)
    assert route == top
    unrecognized = re.search(r"error: unrecognized arguments: .*\n\Z", top_text)
    if unrecognized and tokens[0] in COMMANDS:
        assert route_text.endswith("chainpoly %s: %s" % (tokens[0], unrecognized[0]))
    else:
        assert route_text == top_text


def test_unrecognized_argument_names_its_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ant", "3", "1,2", "--bogus"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert out.err.startswith("usage: chainpoly ant [-h] ")
    assert out.err.endswith("\nchainpoly ant: error: unrecognized arguments: --bogus\n")


bad_lines = st.sampled_from(
    [b"not json", b"[1, 2]", b'{"a": 1}', b'["--batch", "x"]', b"[]", b"", b"\xff["]
)


@given(st.lists(st.one_of(argvs().map(lambda a: json.dumps(a).encode()), bad_lines),
                max_size=6))
@settings(max_examples=40, deadline=None)
@example([b'["ant", "-h"]', b'["nc", "A3", "--json", "--help"]', b'["ant", "3", "1,2"]'])
def test_fuzzed_batch_keeps_the_exit_contract(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "batch.jsonl")
        with open(path, "wb") as fh:
            fh.write(b"\n".join(lines))
        code, out = _run_main(["--batch", path])
    records = [json.loads(line) for line in out.splitlines()]
    assert code == max([r["exit"] for r in records], default=0)
    assert code in (0, 1, 2, 3)


# bases as (elements, covers, ranks): a chain, the square, the Boolean
# lattice B3 on bitmask integers, and the pentagon, which is bounded but
# not graded
CUBE = list(range(8))
POSET_BASES = [
    (["e", "a", "b"], [["e", "a"], ["a", "b"]], {"e": 0, "a": 1, "b": 2}),
    (["e", "a", "b", "ab"], SQUARE_COVERS, SQUARE_RANKS),
    (CUBE, [[x, x | 1 << k] for x in CUBE for k in range(3) if not x >> k & 1],
     {str(x): bin(x).count("1") for x in CUBE}),
    (["0", "a", "b", "c", "1"], [["0", "a"], ["a", "b"], ["b", "1"], ["0", "c"], ["c", "1"]],
     None),
]
ODD_NAMES = [True, 1.5, None, [1], {"x": 1}, "ghost", 99]


@st.composite
def poset_files(draw):
    """A JSON poset from a graded base with a few faults: duplicate,
    unknown, self, cyclic and implied covers, an element left ungraded,
    a declared bottom or ranks, right or wrong, and names that are no
    strings or integers."""
    elements, covers, ranks = draw(st.sampled_from(POSET_BASES))
    elements, covers = list(elements), [list(c) for c in covers]
    data = {"elements": elements, "covers": covers}
    element = st.sampled_from(elements)
    for fault in draw(st.lists(st.integers(0, 9), max_size=3)):
        if fault == 0:
            covers.append(list(draw(st.sampled_from(covers))))
        elif fault == 1:
            elements.append(draw(element))
        elif fault == 2:
            covers.append([draw(element), draw(st.sampled_from(ODD_NAMES))])
        elif fault == 3:
            x = draw(element)
            covers.append([x, x])
        elif fault == 4:  # a cycle through a reversed cover
            covers.append(list(reversed(draw(st.sampled_from(covers)))))
        elif fault == 5:  # bottom to top, implied once the rank is 2
            covers.append([elements[0], elements[-1]])
        elif fault == 6:  # a maximal element below the top rank
            elements.append("z")
            covers.append([draw(element), "z"])
        elif fault == 7:
            data["bottom"] = draw(st.one_of(element, st.sampled_from(ODD_NAMES)))
        elif fault == 8:
            declared = dict(ranks or {str(x): 0 for x in elements})
            key = draw(st.sampled_from(sorted(declared) + ["ghost"]))
            declared[key] = draw(st.sampled_from([0, 1, 2, 3, 1.5, "1", True, None]))
            data["ranks"] = declared
        else:
            where = draw(st.sampled_from(["element", "cover"]))
            odd = draw(st.sampled_from(ODD_NAMES))
            if where == "element":
                elements[draw(st.integers(0, len(elements) - 1))] = odd
            else:
                covers[draw(st.integers(0, len(covers) - 1))][draw(st.integers(0, 1))] = odd
    if ranks is not None and draw(st.booleans()):
        data.setdefault("ranks", ranks)
    return data


@given(poset_files(), st.sampled_from(["-", "1", "2", "1,2", "2,3", "0", "x"]))
@settings(max_examples=200, deadline=None)
def test_fuzzed_poset_files_keep_the_exit_contract(data, t):
    """Each run exits in {0, 1, 2, 3} without a traceback; a failed run
    prints exactly one line, its error= line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "poset.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        argv = ["poset", path, "--flags", "--rank-select", t, "--certify"]
        code, out = _run_main(argv)
    lines = out.splitlines()
    errors = [line for line in lines if line.startswith("error=")]
    assert code in (0, 1, 2, 3), (data, t)
    if code in (2, 3):
        assert lines == errors and len(errors) == 1, (data, t, out)
    else:
        assert not errors, (data, t, out)
