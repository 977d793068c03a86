import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
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
    assert certified == [nc_h_formula(t), nc_chain_polynomial(t)]


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


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:  # an argparse usage error
            return exc.code


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
        assert _exit_code(argv) in (0, 1, 2, 3), argv
