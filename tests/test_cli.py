import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import juliafit
from juliafit.cli import main
from juliafit.shapes import make_figure_eight, make_square, write_curve_file


@pytest.fixture(scope="module")
def built_square(fixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("built_square")
    rc = main(["build", str(fixture_dir / "square.txt"), "--eps-geom", "0.05",
               "--out", str(out)])
    assert rc == 0
    return out


def test_build_square_artifacts(built_square):
    for name in ("shape.json", "certificate.json", "map.json"):
        assert (built_square / name).exists()
    cert = json.loads((built_square / "certificate.json").read_text())
    assert cert["passed"] is True
    assert cert["kind"] == "escape_certificate"
    assert cert["sampled"] is True
    assert cert["config"]["command"] == "build"
    shape = json.loads((built_square / "shape.json").read_text())
    assert shape["n"] == cert["n_certified"]


@pytest.mark.parametrize("command",
                         ["build", "render", "verify", "rational", "annulus"])
def test_help_and_missing_positional(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2


def test_build_circle_fixture(fixture_dir, tmp_path):
    rc = main(["build", str(fixture_dir / "circle.txt"), "--n", "64",
               "--out", str(tmp_path)])
    assert rc == 0


def test_build_figure_eight_exits_not_simple(tmp_path):
    p = tmp_path / "eight.txt"
    write_curve_file(make_figure_eight(), p)
    rc = main(["build", str(p), "--out", str(tmp_path)])
    assert rc == 3


def test_build_missing_file_exits_io(tmp_path):
    rc = main(["build", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
    assert rc == 6


def test_build_garbage_file_exits_parse(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("not a curve\n")
    rc = main(["build", str(p), "--out", str(tmp_path)])
    assert rc == 2


def test_build_undersized_degree_exits_certification(fixture_dir, tmp_path):
    rc = main(["build", str(fixture_dir / "circle.txt"), "--n", "8",
               "--out", str(tmp_path)])
    assert rc == 4


def test_render_from_dump(built_square, tmp_path):
    rc = main(["render", str(built_square / "shape.json"),
               "--certificate", str(built_square / "certificate.json"),
               "--grid", "64", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "field.json").exists()
    assert (tmp_path / "image.pgm").exists()


def test_render_determinism(built_square, tmp_path):
    args = ["render", str(built_square / "shape.json"),
            "--certificate", str(built_square / "certificate.json"),
            "--grid", "64"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a/field.json").read_bytes() == (tmp_path / "b/field.json").read_bytes()
    assert (tmp_path / "a/image.pgm").read_bytes() == (tmp_path / "b/image.pgm").read_bytes()


def _run_from_copies(tmp_path, inputs, argv, side):
    """Copy `inputs` into a directory of their own for `side`, run
    `argv(copied_paths)` into a fresh output directory and return it."""
    src = tmp_path / f"in_{side}"
    src.mkdir()
    out = tmp_path / f"out_{side}"
    assert main(argv([str(shutil.copy(p, src)) for p in inputs])
                + ["--out", str(out)]) == 0
    return out


def _config_strings(cfg):
    for v in cfg.values():
        for item in v if isinstance(v, list) else [v]:
            if isinstance(item, str):
                yield item


def _assert_same_artifacts(out_a, out_b):
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        if name.endswith(".json"):
            cfg = json.loads((out_a / name).read_text()).get("config", {})
            assert "out" not in cfg
            for s in _config_strings(cfg):
                assert os.sep not in s and not os.path.isabs(s), (name, s)


@pytest.mark.parametrize("command", ["build", "verify", "rational", "annulus"])
def test_artifacts_independent_of_paths(command, built_square, fixture_dir,
                                        tmp_path):
    if command == "build":
        out_a = built_square
        out_b = _run_from_copies(
            tmp_path, [fixture_dir / "square.txt"],
            lambda p: ["build", p[0], "--eps-geom", "0.05"], "b")
    else:
        if command == "verify":
            inputs = [built_square / "shape.json",
                      built_square / "certificate.json",
                      fixture_dir / "square.txt"]
            argv = lambda p: ["verify", p[0], "--certificate", p[1],
                              "--curve", p[2], "--delta", "0.3",
                              "--grid", "64"]
        else:
            names = {"rational": ("circle_left", "circle_right"),
                     "annulus": ("ring_outer", "ring_inner")}[command]
            inputs = [fixture_dir / f"{n}.txt" for n in names]
            # a fixed degree and inflation skip the search loops
            argv = lambda p: [command, *p, "--delta", "0.3", "--n", "256",
                              "--epsilon", "0.015625", "--grid", "64"]
        out_a = _run_from_copies(tmp_path, inputs, argv, "a")
        out_b = _run_from_copies(tmp_path, inputs, argv, "b")
    _assert_same_artifacts(out_a, out_b)


def test_verify_square_passes(built_square, fixture_dir, tmp_path):
    delta = 0.2 * np.sqrt(2.0)
    rc = main(["verify", str(built_square / "shape.json"),
               "--certificate", str(built_square / "certificate.json"),
               "--curve", str(fixture_dir / "square.txt"),
               "--delta", str(delta), "--grid", "256", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["pass"] is True
    assert rep["d_J"] < delta


def test_verify_zero_delta_fails(built_square, fixture_dir, tmp_path):
    rc = main(["verify", str(built_square / "shape.json"),
               "--certificate", str(built_square / "certificate.json"),
               "--curve", str(fixture_dir / "square.txt"),
               "--delta", "0", "--grid", "128", "--out", str(tmp_path)])
    assert rc == 5


def test_verify_field_input(built_square, fixture_dir, tmp_path):
    rc = main(["render", str(built_square / "shape.json"),
               "--certificate", str(built_square / "certificate.json"),
               "--grid", "256", "--bbox", "-0.6", "-0.6", "1.6", "1.6",
               "--out", str(tmp_path)])
    assert rc == 0
    rc = main(["verify", str(tmp_path / "field.json"),
               "--curve", str(fixture_dir / "square.txt"),
               "--delta", "0.3", "--out", str(tmp_path)])
    assert rc == 0


def test_rational_two_circles(fixture_dir, tmp_path):
    rc = main(["rational", str(fixture_dir / "circle_left.txt"),
               str(fixture_dir / "circle_right.txt"),
               "--delta", "0.3", "--grid", "256", "--out", str(tmp_path)])
    assert rc == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["passed"] is True
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["pass"] is True


def test_rational_overlapping_rejected(fixture_dir, tmp_path):
    from juliafit.shapes import make_circle

    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    write_curve_file(make_circle(1.0, 0.0), a)
    write_curve_file(make_circle(1.0, 1.0), b)
    rc = main(["rational", str(a), str(b), "--out", str(tmp_path)])
    assert rc == 3


def test_rational_single_curve_degenerates_to_build(fixture_dir, tmp_path):
    rc = main(["rational", str(fixture_dir / "circle.txt"), "--delta", "0.3",
               "--grid", "128", "--out", str(tmp_path)])
    assert rc == 0
    sysobj = json.loads((tmp_path / "system.json").read_text())
    assert len(sysobj["shapes"]) == 1


def test_annulus_round(fixture_dir, tmp_path):
    rc = main(["annulus", str(fixture_dir / "ring_outer.txt"),
               str(fixture_dir / "ring_inner.txt"),
               "--delta", "0.3", "--grid", "256", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["pass"] is True


def test_annulus_default_delta(fixture_dir, tmp_path):
    # without --delta the render must cover the same neighbourhood that
    # verification checks
    rc = main(["annulus", str(fixture_dir / "ring_outer.txt"),
               str(fixture_dir / "ring_inner.txt"), "--n", "256",
               "--epsilon", "0.015625", "--grid", "64", "--out", str(tmp_path)])
    assert rc == 0


def test_annulus_crossing_curves_rejected(tmp_path, capsys):
    # the inner square crosses the outer one's right edge between vertices,
    # so the curves are a positive distance apart at every vertex
    outer, inner = tmp_path / "outer.txt", tmp_path / "inner.txt"
    write_curve_file(make_square(2.0, -1.0 - 1.0j), outer)
    write_curve_file(make_square(1.0, 0.3 - 0.45j), inner)
    rc = main(["annulus", str(outer), str(inner), "--delta", "0.3",
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "annulus curves cross or touch" in capsys.readouterr().err


def test_annulus_basepoint_in_inner_disk(fixture_dir, tmp_path):
    rc = main(["annulus", str(fixture_dir / "ring_outer.txt"),
               str(fixture_dir / "ring_inner.txt"),
               "--delta", "0.3", "--basepoint", "0", "0",
               "--out", str(tmp_path)])
    assert rc == 3


def test_console_entry_point(fixture_dir, tmp_path):
    # the child imports the package from where this process found it, which
    # pytest's pythonpath setting does not pass on
    src = os.path.dirname(os.path.dirname(juliafit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "juliafit.cli", "build",
         str(fixture_dir / "circle.txt"), "--n", "64", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert (tmp_path / "shape.json").exists()


def _pair_args(command, fixture_dir):
    names = {"rational": ("circle_left", "circle_right"),
             "annulus": ("ring_outer", "ring_inner")}[command]
    return [str(fixture_dir / f"{n}.txt") for n in names]


@pytest.mark.parametrize("command", ["rational", "annulus"])
def test_system_dump_read_once(command, fixture_dir, tmp_path, monkeypatch):
    files = _pair_args(command, fixture_dir)
    built = tmp_path / "built"
    assert main([command, *files, "--delta", "0.3", "--n", "256",
                 "--epsilon", "0.015625", "--grid", "64", "--out", str(built)]) == 0
    dump = str(built / "system.json")
    reads = []
    real_load = json.load

    def counting_load(fh, *args, **kwargs):
        if getattr(fh, "name", None) == dump:
            reads.append(dump)
        return real_load(fh, *args, **kwargs)

    monkeypatch.setattr(json, "load", counting_load)
    verify = ["verify", dump, "--delta", "0.3", "--grid", "64",
              "--out", str(tmp_path / "verify")]
    for f in files:
        verify += ["--curve", f]
    assert main(verify) == 0
    assert len(reads) == 1
    assert main(["render", dump, "--grid", "64", "--out", str(tmp_path / "render")]) == 0
    assert len(reads) == 2


def test_verify_annulus_dump_curves_in_either_order(fixture_dir, tmp_path):
    files = _pair_args("annulus", fixture_dir)
    built = tmp_path / "built"
    assert main(["annulus", *files, "--delta", "0.3", "--n", "256",
                 "--epsilon", "0.015625", "--grid", "64", "--out", str(built)]) == 0
    for order in (files, files[::-1]):
        out = tmp_path / "verify"
        argv = ["verify", str(built / "system.json"), "--delta", "0.3",
                "--grid", "64", "--out", str(out)]
        for f in order:
            argv += ["--curve", f]
        assert main(argv) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        assert "annulus" not in report["config"]


def test_rational_validates_annuli_once(fixture_dir, tmp_path, monkeypatch):
    from juliafit import rational

    calls = []
    real = rational.validate_mutually_exterior

    def counting(annuli):
        calls.append(len(annuli))
        return real(annuli)

    monkeypatch.setattr(rational, "validate_mutually_exterior", counting)
    assert main(["rational", *_pair_args("rational", fixture_dir), "--delta", "0.3",
                 "--n", "256", "--epsilon", "0.015625", "--grid", "64",
                 "--out", str(tmp_path)]) == 0
    assert calls == [2]


def _malformed_dump(case, shape):
    """Text of a dump that is broken in the way `case` names, made from a
    valid shape dump."""
    if case == "not-json":
        return "{ not json"
    if case == "shape-without-roots":
        return json.dumps({k: v for k, v in shape.items() if k != "roots"})
    if case == "nested-shape-of-wrong-kind":
        return json.dumps({"kind": "multi_shape_system", "t": shape["t"],
                           "shapes": [dict(shape, kind="annulus_map_system")]})
    if case == "field-without-width":
        return json.dumps({"kind": "escape_field", "bbox": [[0, 0], [1, 1]],
                           "height": 16, "escape_radius": 2.0,
                           "capture_radius": 0.5, "max_iter": 10,
                           "status_b64": "", "iterations_b64": ""})
    if case == "certificate-without-radii":
        return json.dumps({"kind": "escape_certificate", "passed": True})
    raise ValueError(case)


@pytest.mark.parametrize("command,case", [
    ("render", "not-json"),
    ("verify", "not-json"),
    ("render", "shape-without-roots"),
    ("verify", "shape-without-roots"),
    ("verify", "field-without-width"),
    ("render", "nested-shape-of-wrong-kind"),
    ("verify", "nested-shape-of-wrong-kind"),
    ("render", "certificate-without-radii"),
    ("verify", "certificate-without-radii"),
])
def test_malformed_dump_exits_parse(command, case, built_square, fixture_dir,
                                    tmp_path, capsys):
    shape = json.loads((built_square / "shape.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(_malformed_dump(case, shape))
    dump, cert = bad, built_square / "certificate.json"
    if case == "certificate-without-radii":
        dump, cert = built_square / "shape.json", bad
    argv = [command, str(dump), "--certificate", str(cert), "--grid", "32",
            "--out", str(tmp_path / "out")]
    if command == "verify":
        argv += ["--curve", str(fixture_dir / "square.txt"), "--delta", "0.3"]
    assert main(argv) == 2
    assert "error [PARSE_ERROR]" in capsys.readouterr().err
