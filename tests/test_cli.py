import json
import subprocess
import sys

import pytest

from chainpoly.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ant_basic(capsys):
    code, out, _ = run_cli(capsys, "ant", "3", "1,2")
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
    code, out, _ = run_cli(capsys, "ant", "3", "0,2")
    assert code == 2
    assert "error=" in out


def test_ant_brute_cap(capsys):
    code, out, _ = run_cli(capsys, "ant", "12", "1", "--brute", "--max-enum", "1000")
    assert code == 3
    assert "error=" in out


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


def test_nc_oracle_unavailable(capsys):
    code, out, _ = run_cli(capsys, "nc", "H3", "--oracle")
    assert code == 3


def test_nc_oracle_cap_before_report(capsys, monkeypatch):
    def report(t):
        raise AssertionError("formula report built for %s" % t)

    monkeypatch.setattr("chainpoly.cli.nc_symdec_report", report)
    for name in ("A40", "H3"):
        code, out, _ = run_cli(capsys, "nc", name, "--oracle")
        assert code == 3
        lines = out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error="), name


def test_nc_symdec(capsys):
    code, out, _ = run_cli(capsys, "nc", "E8", "--symdec")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("1,25071,")
    assert "symdec=yes" in lines
    sym = next(l for l in lines if l.startswith("symmetric-part="))
    coeffs = [int(c) for c in sym.split("=", 1)[1].split(",")]
    assert coeffs == coeffs[::-1]


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


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "chainpoly.cli", "ant", "3", "1,2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "1,4,1"
