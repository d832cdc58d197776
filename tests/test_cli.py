import io
import json
import os
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


@pytest.mark.parametrize("pair, trials, seed", [
    (["--p", "centroid", "--q", "santalo"], "8", "5"),
    # every body fails: the failures must keep the bodies' own indices
    (["--p", "capfamily:1e-13,1e-13", "--q", "centroid"], "4", "1"),
], ids=["centroid-santalo", "failing-capfamily"])
def test_dual_check_jobs_deterministic(pair, trials, seed):
    argv = ["dual-check", *pair, "--trials", trials, "--seed", seed]
    base = run(argv)
    par = run([*argv, "--jobs", "2"])
    assert base[1] == par[1]


def test_dual_check_jobs_bounded_by_cpus(monkeypatch):
    # --jobs asks for at most one worker per CPU; the pool is a stand-in
    # that records its size and maps in this process
    sizes = []

    class RecordingPool:
        def __init__(self, n):
            sizes.append(n)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    class Context:
        Pool = RecordingPool

    monkeypatch.setattr("multiprocessing.get_context", lambda method: Context)
    # one CPU, where the platform has an affinity call and where it has not
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    argv = ["dual-check", "--p", "centroid", "--q", "santalo", "--trials", "3",
            "--seed", "2"]
    assert run([*argv, "--jobs", "8"]) == run(argv)
    assert sizes == [1]


def test_product_check():
    code, out = run(["product-check", "--p", "centroid", "--q", "santalo",
                     "--r", "centroid", "--trials", "5", "--seed", "2"])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_invariance():
    code, out = run(["invariance", "--body", "simplex", "--id", "centroid",
                     "--trials", "5", "--seed", "3", "--tol", "1e-10"])
    assert code == 0


def test_invariance_symcore_on_a_trapezoid():
    # the symcore point of a trapezoid lies on the kink of the overlap area
    code, out = run(["invariance", "--body", "kab:0.4,0.9", "--id", "symcore",
                     "--trials", "3", "--seed", "2"])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_import_loads_no_scipy():
    import os
    import subprocess

    import affpoints

    src = os.path.dirname(os.path.dirname(affpoints.__file__))
    code = ("import sys, affpoints.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


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
    code, out = run(["iterate-product", "--body", "kab:1,2",
                     "--p", "centroid", "--r", "centroid", "--k", "0"])
    assert code == 0
    assert len(json.loads(out)["values"]) == 1


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


BAD_POINT_SPECS = ["capfamily:", "capfamily:0.1", "capfamily:0.1,0.05,1",
                   "capfamily:nan,0.1", "capfamily:0,0.1", "santalo:1", "nosuch"]


@pytest.mark.parametrize("argv", [
    ["point", "--body", "ngon:abc", "--id", "centroid"],
    ["point", "--body", "kab:1", "--id", "centroid"],
    ["point", "--body", "random:9,85,3", "--id", "centroid"],
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
    ["point", "--body", "file:{tmp}/nan.json", "--id", "centroid"],
    ["iterate-product", "--body", "kab:1,2", "--p", "centroid",
     "--r", "centroid", "--k", "-1"],
    ["region", "santalo", "--body", "square", "--param", "0.5",
     "--rays", "2"],
    ["region", "floating", "--body", "square", "--param", "0.1",
     "--rays", "100000000000"],
    ["region", "illumination", "--body", "square", "--param", "nan"],
    ["region", "illumination", "--body", "square", "--param", "inf"],
    ["region", "santalo", "--body", "square", "--param", "nan", "--rays", "16"],
    ["region", "santalo", "--body", "square", "--param", "inf", "--rays", "16"],
    ["point", "--body", "random:9,4", "--id", "capfamily:0.1,inf"],
    ["counterexample", "--eps", "-1"],
    ["counterexample", "--eps", "nan"],
    ["counterexample", "--eta", "1.5"],
    ["dual-check", "--p", "centroid", "--q", "santalo", "--trials", "1",
     "--tol", "nan"],
    ["product-check", "--p", "centroid", "--q", "santalo", "--r", "centroid",
     "--trials", "1", "--tol", "inf"],
    ["invariance", "--body", "simplex", "--id", "centroid", "--trials", "1",
     "--tol", "0"],
    ["invariance", "--body", "simplex", "--id", "centroid", "--trials", "1",
     "--tol", "-1e-6"],
    ["point", "--body", "ngon:1000000000000", "--id", "centroid"],
    ["point", "--body", "random:1000000000000,1", "--id", "centroid"],
    # past about 1e154 the area overflows, and canonicalize's cross
    # products with it, with numpy's RuntimeWarning; run as the console
    # script runs, where that warning only prints.  At 1e103 the centroid's
    # cubic sums overflowed into [-Infinity, -Infinity], which is no JSON,
    # until they ran at unit scale (test_point_at_extreme_scales)
    pytest.param(["point", "--body", "file:{tmp}/huge.json", "--id", "centroid"],
                 marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")),
    ["iterate-product", "--body", "square", "--p", "john", "--r", "santalo",
     "--k", "100000000"],
    ["dual-check", "--p", "centroid", "--q", "santalo", "--trials", "100000000"],
    # vertices that are not [x, y] pairs; reshaped to pairs, the first two
    # read as the triangle (0, 0), (1, 0), (1, 1)
    ["point", "--body", "file:{tmp}/triples.json", "--id", "centroid"],
    ["point", "--body", "file:{tmp}/flat.json", "--id", "centroid"],
    ["point", "--body", "file:{tmp}/nested.json", "--id", "centroid"],
    ["region", "floating", "--body", "square", "--param", "0.1", "--rays", "32"],
    ["region", "illumination", "--body", "square", "--param", "0.1", "--rays", "10"],
    ["region", "john", "--body", "square", "--param", "1.5"],
    ["region", "symcore", "--body", "square", "--param", "0"],
    ["point", "--body", "beta:1.5", "--id", "centroid"],
    ["point", "--body", "nosuch", "--id", "centroid"],
    # the point grammar: ID, or capfamily:EPS,DELTA, alike for --id and --p
    *[[*cmd, spec, *rest] for spec in BAD_POINT_SPECS for cmd, rest in (
        (["point", "--body", "square", "--id"], []),
        (["dual-check", "--p"], ["--q", "centroid", "--trials", "1"]))],
    ["point", "--body", "square", "--id", "centroid", "--eps", "0.1"],
])
def test_bad_input_exit_2(argv, tmp_path, monkeypatch, capsys):
    from affpoints import cli

    (tmp_path / "not_json.json").write_text("not json\n")
    (tmp_path / "no_vertices.json").write_text('{"kind": "polygon"}\n')
    (tmp_path / "nan.json").write_text(
        '{"kind": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [NaN, 1]]}\n')
    (tmp_path / "huge.json").write_text(
        '{"kind": "polygon", "vertices": [[0, 0], [1e200, 0], [0, 1e200]]}\n')
    (tmp_path / "triples.json").write_text(
        '{"kind": "polygon", "vertices": [[0, 0, 1], [0, 1, 1]]}\n')
    (tmp_path / "flat.json").write_text('{"kind": "polygon", "vertices": [0, 0, 1, 0, 0, 1]}\n')
    (tmp_path / "nested.json").write_text(
        '{"kind": "polygon", "vertices": [[[0, 0]], [[1, 0]], [[0, 1]]]}\n')
    argv = [a.format(tmp=tmp_path) for a in argv]
    monkeypatch.setattr(sys, "argv", ["affpoints", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, code", [
    (["point", "--body", "cross", "--id", "centroid"], 0),
    (["point", "--body", "beta:0.5", "--id", "centroid"], 0),
    # no sign change of the certificate's function: a failed check
    (["counterexample", "--eta", "0.5", "--eps", "0.5"], 1),
    (["point", "--body", "random:12,7", "--id", "capfamily:0.1,0.05"], 0),
])
def test_exit_code_and_one_document(argv, code, monkeypatch, capsys):
    from affpoints import cli

    monkeypatch.setattr(sys, "argv", ["affpoints", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]).get("passed", True) is (code == 0)


@pytest.mark.parametrize("s", [1e103, 1e-110])
def test_point_at_extreme_scales(s, tmp_path):
    # the triangle (0, 0), (s, 0), (0, s) has its centroid at s / 3, and so
    # has every affine invariant point; at 1e103 centroid printed
    # [-Infinity, -Infinity], and at 1e-110 the centre of the bounding box,
    # (5e-111, 5e-111), with exit 0
    body = tmp_path / "tri.json"
    body.write_text(json.dumps({"kind": "polygon", "vertices": [[0, 0], [s, 0], [0, s]]}))
    for pid in ("centroid", "santalo", "john", "loewner", "symcore"):
        code, out = run(["point", "--body", f"file:{body}", "--id", pid])
        assert code == 0
        assert np.abs(np.array(json.loads(out)["value"]) / (s / 3) - 1.0).max() <= 1e-15


def _readme_examples():
    import pathlib
    import re
    import shlex

    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), re.S)
    return [shlex.split(line)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("affpoints ")]


def test_readme_lists_examples():
    assert len(_readme_examples()) >= 10


@pytest.mark.parametrize("argv", _readme_examples(), ids=" ".join)
def test_readme_examples(argv, tmp_path, monkeypatch, capsys):
    # each README example exits 0 and prints one JSON document, the same on
    # a second run; the working directory takes the files they write
    from affpoints import cli

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["affpoints", *argv])
    outs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 0
        outs.append(capsys.readouterr().out)
    lines = outs[0].splitlines()
    assert len(lines) == 1
    json.loads(lines[0])
    assert outs[0] == outs[1]
