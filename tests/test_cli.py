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


def test_cap_from_the_environment_names_the_stage(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(ENV_CAP, "3")
    status, out, err = run(tmp_path, capsys, FAT_TRIANGLE, "classify")
    assert (status, out) == (1, "")
    assert err == "tanglekit: resource limit exceeded in enumerate_cycles (cap 3)\n"


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
