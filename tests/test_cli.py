"""The console script, driven through main()."""

from __future__ import annotations

import pytest

from tanglekit.cli import main
from tanglekit.limits import ENV_CAP

FAT_TRIANGLE = (
    "biasedgraph 1\nv 3\n"
    "e 0 0 1\ne 1 1 2\ne 2 2 0\ne 3 0 1\ne 4 1 2\ne 5 2 0\n"
    "bias signed 3 4 5\n"
)
# the benchmark's PPSigned C6 member (pp-signed-c6)
PP_SIGNED_C6 = (
    "biasedgraph 1\nv 6\n"
    "e 0 0 1\ne 1 1 2\ne 2 2 3\ne 3 3 4\ne 4 4 5\ne 5 5 0\ne 6 0 3\ne 7 1 4\ne 8 2 5\n"
    "bias signed 6 7 8\n"
)
TWO_TRIANGLES = (
    "biasedgraph 1\nv 6\n"
    "e 0 0 1\ne 1 1 2\ne 2 2 0\ne 3 3 4\ne 4 4 5\ne 5 5 3\ne 6 2 3\n"
    "bias signed 0 3\n"
)


def run(tmp_path, capsys, text, *command):
    path = tmp_path / "input.bg"
    path.write_text(text)
    status = main([*command, str(path)])
    out, err = capsys.readouterr()
    return status, out, err


def test_verdict_prints_the_pair(tmp_path, capsys):
    status, out, err = run(tmp_path, capsys, TWO_TRIANGLES, "verdict")
    assert (status, err) == (0, "")
    assert out == "two disjoint unbalanced cycles\ncycle 0 1 2\ncycle 3 4 5\n"


def test_verdict_prints_the_blocking_vertex(tmp_path, capsys):
    text = TWO_TRIANGLES.replace("bias signed 0 3", "bias signed 0")
    assert run(tmp_path, capsys, text, "verdict") == (0, "blocking vertex 0\n", "")


def test_classify_prints_the_codes(tmp_path, capsys):
    status, out, err = run(tmp_path, capsys, FAT_TRIANGLE, "classify")
    assert (status, err) == (0, "")
    assert out.startswith("tangled: ") and "T1d" in out.split()


def test_parse_error_is_one_line(tmp_path, capsys):
    text = FAT_TRIANGLE.replace("e 5 2 0", "e 5 2 7")
    status, out, err = run(tmp_path, capsys, text, "verdict")
    assert (status, out) == (1, "")
    assert err == "tanglekit: parse: line 8, column 7: endpoint 7 outside 0..2\n"


def test_non_utf8_input_is_one_line(tmp_path, capsys):
    path = tmp_path / "input.bg"
    path.write_bytes(FAT_TRIANGLE.encode().replace(b"v 3", b"v \xff3"))
    status = main(["verdict", str(path)])
    out, err = capsys.readouterr()
    assert (status, out) == (1, "")
    assert err == (
        f"tanglekit: {path}: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 16: invalid start byte\n"
    )


def test_cap_from_the_environment_names_the_stage(tmp_path, capsys, monkeypatch):
    # the fat triangle classifies with every cap at 11; at 10 the cycle
    # list the detectors read is one too long
    monkeypatch.setenv(ENV_CAP, "10")
    status, out, err = run(tmp_path, capsys, FAT_TRIANGLE, "classify")
    assert (status, out) == (1, "")
    assert err == "tanglekit: resource limit exceeded in enumerate_cycles (cap 10)\n"
    monkeypatch.setenv(ENV_CAP, "11")
    status, out, err = run(tmp_path, capsys, FAT_TRIANGLE, "classify")
    assert (status, err) == (0, "") and "T1d" in out.split()


def test_classify_names_the_searches_a_cap_stopped(tmp_path, capsys, monkeypatch):
    # at 100 the Tricoloured search stops and its T1h label is missing
    assert run(tmp_path, capsys, PP_SIGNED_C6, "classify") == (0, "tangled: T1a T1b T1f T1g T1h T3\n", "")
    monkeypatch.setenv(ENV_CAP, "100")
    status, out, err = run(tmp_path, capsys, PP_SIGNED_C6, "classify")
    assert (status, out, err) == (0, "tangled: T1a T1b T1f T1g T3\ncapped Tricoloured\n", "")


def test_bad_cap_and_missing_file(tmp_path, capsys, monkeypatch):
    assert main(["verdict", str(tmp_path / "absent.bg")]) == 1
    assert "absent.bg" in capsys.readouterr().err
    monkeypatch.setenv(ENV_CAP, "zero")
    assert main(["verdict", str(tmp_path / "absent.bg")]) == 2
    assert ENV_CAP in capsys.readouterr().err


def test_usage_errors_exit_through_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["linkage", "x.bg"])
    assert exc.value.code == 2


# C4 on 0-3 and a triangle 4, 5, 6 joined to all of 0, 1, 2
C4_WITH_K33 = (
    "biasedgraph 1\nv 7\n"
    "e 0 0 1\ne 1 1 2\ne 2 2 3\ne 3 3 0\ne 4 4 5\ne 5 5 6\ne 6 6 4\n"
    "e 7 4 0\ne 8 4 1\ne 9 4 2\ne 10 5 0\ne 11 5 1\ne 12 5 2\ne 13 6 0\ne 14 6 1\ne 15 6 2\n"
    "bias all-balanced\n"
)


def test_linkage_prints_two_paths(tmp_path, capsys):
    path = tmp_path / "input.bg"
    path.write_text(C4_WITH_K33)
    assert main(["linkage", str(path), "0", "1", "2", "3"]) == 0
    assert capsys.readouterr() == ("path 0 1\npath 2 3\n", "")


def test_linkage_prints_the_witness_sets(tmp_path, capsys):
    path = tmp_path / "input.bg"
    path.write_text(C4_WITH_K33)
    assert main(["linkage", str(path), "0", "2", "1", "3"]) == 0
    assert capsys.readouterr() == ("witness\nset 4 5 6\n", "")
    path.write_text("biasedgraph 1\nv 4\ne 0 0 1\ne 1 1 2\ne 2 2 3\ne 3 3 0\nbias all-balanced\n")
    assert main(["linkage", str(path), "0", "2", "1", "3"]) == 0
    assert capsys.readouterr() == ("witness\n", "")


def test_linkage_errors_are_one_line(tmp_path, capsys, monkeypatch):
    path = tmp_path / "input.bg"
    path.write_text(C4_WITH_K33)
    assert main(["linkage", str(path), "0", "1", "1", "3"]) == 1
    assert capsys.readouterr() == ("", "tanglekit: linkage: terminals must be four distinct vertices\n")
    assert main(["linkage", str(path), "0", "1", "2", "9"]) == 1
    assert capsys.readouterr() == ("", "tanglekit: linkage: unknown vertices [9]\n")
    monkeypatch.setenv(ENV_CAP, "1")
    assert main(["linkage", str(path), "0", "2", "1", "4"]) == 1
    assert capsys.readouterr() == ("", "tanglekit: resource limit exceeded in linkage path search (cap 1)\n")
