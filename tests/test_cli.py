import io
import json
import sys

import numpy as np
import pytest

from affpoints.cli import run_command


def run(argv):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = run_command(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_point_centroid_square():
    code, out = run(["point", "--body", "square", "--id", "centroid"])
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == [0.0, 0.0]


def test_polar_square_is_cross():
    code, out = run(["polar", "--body", "square"])
    assert code == 0
    verts = json.loads(out)["vertices"]
    assert sorted(map(tuple, verts)) == [(-1.0, 0.0), (0.0, -1.0),
                                         (0.0, 1.0), (1.0, 0.0)]


def test_shift_command():
    code, out = run(["shift", "--body", "square", "--z", "0.5,0"])
    assert code == 0
    verts = np.array(json.loads(out)["vertices"])
    assert verts[:, 0].max() == pytest.approx(2.0)


def test_ellipse_with_certificate():
    code, out = run(["ellipse", "john", "--body", "simplex", "--certify"])
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["residual_identity"] < 1e-9


def test_region_meta():
    code, out = run(["region", "floating", "--body", "square",
                     "--param", "0.125", "--rays", "64"])
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"] == {"map": "floating", "param": 0.125, "rays": 64}


def test_dual_check_pass_and_exit_codes():
    code, out = run(["dual-check", "--p", "centroid", "--q", "santalo",
                     "--trials", "10", "--seed", "1"])
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out = run(["dual-check", "--p", "centroid", "--q", "centroid",
                     "--trials", "10", "--seed", "1", "--tol", "1e-9"])
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_dual_check_jobs_deterministic():
    base = run(["dual-check", "--p", "centroid", "--q", "santalo",
                "--trials", "8", "--seed", "5"])
    par = run(["dual-check", "--p", "centroid", "--q", "santalo",
               "--trials", "8", "--seed", "5", "--jobs", "2"])
    assert base[1] == par[1]


def test_product_check():
    code, out = run(["product-check", "--p", "centroid", "--q", "santalo",
                     "--r", "centroid", "--trials", "5", "--seed", "2"])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_invariance():
    code, out = run(["invariance", "--body", "simplex", "--id", "centroid",
                     "--trials", "5", "--seed", "3", "--tol", "1e-10"])
    assert code == 0


def test_preimage():
    code, out = run(["preimage", "--body", "random:9,4", "--id", "centroid"])
    assert code == 0
    assert json.loads(out)["residual"] < 1e-7


def test_counterexample():
    code, out = run(["counterexample", "--eta", "0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["witnesses"]) == 2


def test_iterate_product():
    code, out = run(["iterate-product", "--body", "kab:1,2",
                     "--p", "centroid", "--r", "centroid", "--k", "3"])
    assert code == 0
    assert len(json.loads(out)["values"]) == 4


def test_byte_identical_output():
    a = run(["point", "--body", "random:12,7", "--id", "santalo"])
    b = run(["point", "--body", "random:12,7", "--id", "santalo"])
    assert a[1] == b[1]


def test_file_body_roundtrip(tmp_path):
    from affpoints.bodies import body_kab
    from affpoints.serialize import save_polygon

    path = tmp_path / "body.json"
    save_polygon(str(path), body_kab(1.0, 2.0))
    code, out = run(["point", "--body", f"file:{path}", "--id", "centroid"])
    assert code == 0
    assert np.allclose(json.loads(out)["value"], (0, 0), atol=1e-13)


def test_svg_emission(tmp_path):
    path = tmp_path / "pic.svg"
    code, _ = run(["region", "floating", "--body", "square",
                   "--param", "0.1", "--rays", "64", "--svg", str(path)])
    assert code == 0
    text = path.read_text()
    assert text.startswith("<svg") and "polygon" in text


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["point", "--body", "square"])  # missing --id
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["point", "--body", "ngon:abc", "--id", "centroid"],
    ["point", "--body", "kab:1", "--id", "centroid"],
    ["point", "--body", "file:/nonexistent", "--id", "centroid"],
    ["point", "--body", "file:{tmp}/not_json.json", "--id", "centroid"],
    ["point", "--body", "file:{tmp}/no_vertices.json", "--id", "centroid"],
    ["dual-check", "--p", "capfamily:x", "--q", "centroid", "--trials", "1"],
    ["dual-check", "--p", "centroid", "--q", "santalo", "--trials", "0"],
    ["dual-check", "--p", "centroid", "--q", "santalo", "--trials", "0",
     "--jobs", "2"],
    ["dual-check", "--p", "centroid", "--q", "santalo", "--trials", "1",
     "--jobs", "0"],
    ["product-check", "--p", "centroid", "--q", "santalo", "--r", "centroid",
     "--trials", "0"],
    ["invariance", "--body", "simplex", "--id", "centroid", "--trials", "0"],
])
def test_bad_input_exit_2(argv, tmp_path, monkeypatch, capsys):
    from affpoints import cli

    (tmp_path / "not_json.json").write_text("not json\n")
    (tmp_path / "no_vertices.json").write_text('{"kind": "polygon"}\n')
    argv = [a.format(tmp=tmp_path) for a in argv]
    monkeypatch.setattr(sys, "argv", ["affpoints", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
