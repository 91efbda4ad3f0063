"""Command-line surface: subcommands, formats, exit codes."""

import json

import pytest

import trizig as tz
from trizig.cli import main
from trizig.errors import MalformedDocument
from trizig.shredding import ShredCertificate


@pytest.fixture()
def bp3_file(tmp_path):
    path = tmp_path / "bp3.json"
    path.write_text(tz.serialize(tz.bipyramid(3)))
    return str(path)


@pytest.fixture()
def bp8_file(tmp_path):
    path = tmp_path / "bp8.json"
    path.write_text(tz.serialize(tz.bipyramid(8)))
    return str(path)


@pytest.fixture()
def octa_file(tmp_path):
    path = tmp_path / "octa.json"
    path.write_text(tz.serialize(tz.platonic("octahedron")))
    return str(path)


@pytest.fixture()
def broken_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(
        {"format": "tri-json/1", "faces": [["1", "2", "3"], ["1", "2", "4"]]}))
    return str(path)


def test_gen_writes_documents(tmp_path, capsys):
    out = tmp_path / "bp3.json"
    assert main(["gen", "bp", "3", "-o", str(out)]) == 0
    assert tz.parse(out.read_text()) == tz.bipyramid(3)
    doc = json.loads(out.read_text())
    assert doc["metadata"] == {"family": "bipyramid", "n": 3}

    assert main(["gen", "projective-plane"]) == 0
    printed = capsys.readouterr().out
    assert tz.parse(printed) == tz.projective_plane_fig5()


def test_gen_is_deterministic(capsys):
    assert main(["gen", "random", "5", "4"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "random", "5", "4"]) == 0
    assert capsys.readouterr().out == first


def test_gen_errors(tmp_path, capsys):
    assert main(["gen", "nonsense"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["gen", "bp", "2"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ParameterOutOfRange"
    assert main(["gen", "bp"]) == 2
    capsys.readouterr()
    assert main(["gen", "torus", "3", "x"]) == 2
    capsys.readouterr()
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        assert main(["gen", "bp", "3", "-o", str(target)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "MalformedDocument"


def test_validate_exit_codes(bp3_file, broken_file, tmp_path, capsys):
    assert main(["validate", bp3_file]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert main(["validate", broken_file]) == 1
    report = capsys.readouterr().out
    assert "EdgeDegreeViolation" in report
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{")
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b'{"faces": "\xe9"}')
    for path in (garbage, tmp_path / "missing.json", undecodable):
        assert main(["validate", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "MalformedDocument"


def test_pinched_vertex_exit_codes(tmp_path, capsys):
    faces = [["1" if v == "12" else v for v in face]
             for face in tz.platonic("icosahedron").faces]
    pinched = tmp_path / "pinched.json"
    pinched.write_text(json.dumps({"format": "tri-json/1", "faces": faces}))
    assert main(["validate", str(pinched)]) == 1
    assert capsys.readouterr().out.startswith("NonManifoldVertex: ")
    assert main(["shred", str(pinched)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValidationFailure"


def test_euler(bp3_file, capsys):
    assert main(["euler", bp3_file]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_knotted_exit_codes(bp3_file, bp8_file, broken_file):
    assert main(["knotted", bp3_file]) == 0
    assert main(["knotted", bp8_file]) == 1
    assert main(["knotted", broken_file]) == 2


def test_zigzags_text_and_json(bp3_file, capsys):
    assert main(["zigzags", bp3_file]) == 0
    text = capsys.readouterr().out
    assert text.startswith("2 zigzags (1 pairs)")
    assert main(["zigzags", bp3_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 2 and doc["pair_count"] == 1
    assert all(z["length"] == 18 for z in doc["zigzags"])


def test_monodromy_table(bp8_file, capsys):
    assert main(["monodromy", bp8_file]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 16
    assert all(row.endswith("M5") for row in rows)

    assert main(["monodromy", bp8_file, "--face", "1,2,a"]) == 0
    assert capsys.readouterr().out.strip() == "1,2,a\tM5"

    assert main(["monodromy", bp8_file, "--face", "1,2,9"]) == 2
    capsys.readouterr()


def test_degenerate_face_argument_is_malformed(bp8_file, capsys):
    assert main(["monodromy", bp8_file, "--face", "1,1,2"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "MalformedDocument"


def test_deeply_nested_json_is_malformed(tmp_path, capsys):
    depth = 100_000
    nested = tmp_path / "nested.json"
    nested.write_text('{"format": "tri-json/1", "faces": '
                      + "[" * depth + "]" * depth + "}")
    for command in ("validate", "euler", "knotted", "shred"):
        assert main([command, str(nested)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "MalformedDocument"
    with pytest.raises(MalformedDocument):
        ShredCertificate.from_json('{"format": "tri-shred-cert/1", "steps": '
                                   + "[" * depth + "]" * depth + "}")


def test_consum_matches_library(bp3_file, tmp_path, capsys):
    other = tmp_path / "other.json"
    other.write_text(tz.serialize(tz.bipyramid(3)))
    out = tmp_path / "sum.json"
    assert main(["consum", bp3_file, "--face", "1,2,a",
                 str(other), "--face", "1,2,a",
                 "--map", "1:1,2:2,a:a", "-o", str(out)]) == 0
    got = tz.parse(out.read_text())
    assert got == tz.example_sum("m2", 1, 1)
    assert main(["knotted", str(out)]) == 0

    assert main(["consum", bp3_file, "--face", "1,2,a",
                 str(other), "--face", "1,2,a", "--map", "1:1"]) == 2
    capsys.readouterr()
    assert main(["consum", bp3_file, "--face", "1,2,a",
                 str(other), "--face", "1,2,a",
                 "--map", "1:2,2:2,a:a,1:1"]) == 2
    assert "InvalidSpecialMap" in capsys.readouterr().err
    assert main(["consum", bp3_file, "--face", "1,2,a",
                 str(other), "--face", "1,2,a", "--map", "nonsense"]) == 2


def test_shred_cli(octa_file, tmp_path, capsys):
    out = tmp_path / "shredded.json"
    cert = tmp_path / "cert.json"
    assert main(["shred", octa_file, "-o", str(out),
                 "--certificate", str(cert)]) == 0
    summary = capsys.readouterr().out
    assert summary.startswith("steps=")
    shredded = tz.parse(out.read_text())
    assert tz.is_z_knotted(shredded)
    certificate = ShredCertificate.from_json(cert.read_text())
    assert tz.verify_certificate(tz.platonic("octahedron"),
                                 certificate, shredded).ok
    # without -o the document goes to stdout
    assert main(["shred", octa_file]) == 0
    printed = capsys.readouterr().out
    assert tz.parse(printed) == shredded
    assert main(["shred", octa_file, "-o", str(out),
                 "--certificate", str(tmp_path / "missing" / "c.json")]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "MalformedDocument"


def test_shred_deterministic_across_processes(octa_file, tmp_path):
    # Hash randomization must not leak into any output bytes.
    import os
    import pathlib
    import subprocess
    import sys

    # The child processes import the same trizig as this one.
    source = str(pathlib.Path(tz.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    outputs = []
    for hashseed in ("1", "99"):
        out = tmp_path / f"out{hashseed}.json"
        cert = tmp_path / f"cert{hashseed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=path)
        subprocess.run(
            [sys.executable, "-m", "trizig.cli", "shred", octa_file,
             "-o", str(out), "--certificate", str(cert)],
            check=True, env=env, capture_output=True)
        outputs.append(out.read_bytes() + cert.read_bytes())
    assert outputs[0] == outputs[1]


def test_gauss_cli(bp3_file, octa_file, capsys):
    assert main(["gauss", bp3_file]) == 0
    word = capsys.readouterr().out.split()
    assert len(word) == 18
    assert len(set(word)) == 9
    assert main(["gauss", octa_file]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NotZKnotted"


def test_closed_stdout_ends_quietly(bp8_file):
    # ``trizig zigzags F | head -1``: the reader goes away before the output
    # is written; the command must end without a traceback.
    import os
    import pathlib
    import subprocess
    import sys

    source = str(pathlib.Path(tz.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    child = subprocess.Popen(
        [sys.executable, "-m", "trizig.cli", "zigzags", bp8_file],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path))
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait() == 1
    assert err == b""


@pytest.mark.parametrize("bad", ["output", "certificate"])
def test_shred_writes_nothing_when_a_path_is_unwritable(octa_file, tmp_path,
                                                        capsys, bad):
    paths = {"output": tmp_path / "out.json", "certificate": tmp_path / "c.json"}
    paths[bad] = tmp_path / "missing" / "x.json"
    assert main(["shred", octa_file, "-o", str(paths["output"]),
                 "--certificate", str(paths["certificate"])]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "MalformedDocument"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["octa.json"]


def test_shred_keeps_existing_files_when_a_path_is_unwritable(octa_file, tmp_path,
                                                              capsys):
    out = tmp_path / "out.json"
    out.write_text("before\n")
    assert main(["shred", octa_file, "-o", str(out),
                 "--certificate", str(tmp_path / "missing" / "c.json")]) == 2
    assert out.read_text() == "before\n"
    assert main(["shred", octa_file, "-o", str(out),
                 "--certificate", str(tmp_path / "c.json")]) == 0
    assert tz.is_z_knotted(tz.parse(out.read_text()))


def test_shred_rejects_an_empty_certificate_path(octa_file, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["shred", octa_file, "-o", str(out), "--certificate", ""]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "MalformedDocument"
    assert not out.exists()
