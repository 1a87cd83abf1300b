import argparse
import hashlib
import inspect
import json
import math
import multiprocessing
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import juliafit.render
from helpers import make_figure_eight
from juliafit import cli, conformal, curves, shapepoly
from juliafit.cli import build_parser, main
from juliafit.shapes import make_square, write_curve_file


@pytest.fixture(scope="module")
def built_square(fixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("built_square")
    rc = main(["build", str(fixture_dir / "square.txt"), "--eps-geom", "0.05",
               "--out", str(out)])
    assert rc == 0
    return out


def test_build_square_artifacts(built_square):
    # the exterior map stays in memory
    assert sorted(p.name for p in built_square.iterdir()) == ["certificate.json", "shape.json"]
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


def test_build_pinched_polygon_exits_not_simple(tmp_path, capsys):
    # vertex 0.5 lies on the non-adjacent edge from 0 to 1; the curve is
    # rejected on loading, before its offsets are taken
    p = tmp_path / "pinched.txt"
    write_curve_file(np.array([0, 1, 1 + 1j, 0.6 + 1j, 0.5 + 0j, 0.4 + 1j, 1j,
                               0.2 + 0.5j, 0.1 + 0.2j]), p)
    rc = main(["build", str(p), "--out", str(tmp_path)])
    assert rc == 3
    assert "[NOT_SIMPLE]" in capsys.readouterr().err


def test_build_missing_file_exits_io(tmp_path):
    rc = main(["build", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
    assert rc == 6


def test_build_garbage_file_exits_parse(tmp_path, capsys):
    text, binary = tmp_path / "bad.txt", tmp_path / "bad.bin"
    text.write_text("not a curve\n")
    # a UTF-16 byte-order mark and text: not UTF-8
    binary.write_bytes(b"\xff\xfe" + "0 0\n1 0\n".encode("utf-16-le"))
    for p in (text, binary):
        assert main(["build", str(p), "--out", str(tmp_path)]) == 2
        assert "error [PARSE_ERROR]" in capsys.readouterr().err


def test_build_non_finite_point_exits_parse(tmp_path, capsys):
    p = tmp_path / "nan.txt"
    write_curve_file(make_square(), p)
    lines = p.read_text().splitlines()
    lines[3] = "nan 0.5"
    p.write_text("\n".join(lines) + "\n")
    assert main(["build", str(p), "--out", str(tmp_path)]) == 2
    assert "error [PARSE_ERROR]" in capsys.readouterr().err


def test_build_undersized_degree_exits_certification(fixture_dir, tmp_path, capsys):
    # 8 roots leave min |P| on the blob's outer curve at about 0.57 beta
    rc = main(["build", str(fixture_dir / "blob.txt"), "--n", "8",
               "--out", str(tmp_path)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "error [NO_DEGREE_FOUND]" in err
    assert "best failing at n = 8 (margins: inside " in err


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


def test_verify_crossing_target_curves_exits_geometry(built_square, fixture_dir,
                                                     tmp_path, capsys):
    other = tmp_path / "shifted_square.txt"
    write_curve_file(make_square(corner=0.5 + 0.25j), other)
    rc = main(["verify", str(built_square / "shape.json"),
               "--certificate", str(built_square / "certificate.json"),
               "--curve", str(fixture_dir / "square.txt"), "--curve", str(other),
               "--delta", "0.3", "--grid", "64", "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "[GEOMETRY_REJECTED]" in capsys.readouterr().err


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


def test_annulus_nesting_ignores_inner_centroid(c_shaped_pair, tmp_path, capsys):
    # the inner C lies inside the outer one although its centroid does not;
    # the run passes the nesting check and stops where the outer curve's own
    # centroid, the map's basepoint, lies outside it
    files = [tmp_path / "outer.txt", tmp_path / "inner.txt"]
    for curve, f in zip(c_shaped_pair, files):
        write_curve_file(curve, f)
    rc = main(["annulus", *map(str, files), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 3
    assert "second curve must lie inside the first" not in err
    assert "[BAD_BASEPOINT]" in err


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


def test_build_and_verify_load_no_scipy(fixture_dir, tmp_path):
    # every nearest-point query runs in juliafit's own engine, so no command
    # imports scipy, not even lazily; scipy serves the tests' oracles
    src = os.path.dirname(os.path.dirname(juliafit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    curve, out = str(fixture_dir / "circle.txt"), str(tmp_path)
    code = f"""
import sys
from juliafit.cli import main
assert main(["build", {curve!r}, "--n", "64", "--out", {out!r}]) == 0
assert main(["verify", {out + "/shape.json"!r}, "--certificate",
             {out + "/certificate.json"!r}, "--curve", {curve!r},
             "--delta", "0.2", "--grid", "128", "--out", {out + "/verify"!r}]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert json.loads((tmp_path / "verify" / "report.json").read_text())["pass"] is True


def test_every_map_kind_has_the_map_interface(fixture_systems):
    maps = [shapepoly.make_circle_shape()] + [m for m, _ in fixture_systems.values()]
    assert [type(m) for m in maps] == list(cli._MAPS)
    for m in maps:
        assert isinstance(m.kind, str) and m.to_obj()["kind"] == m.kind
        assert isinstance(m.t, complex) and m.roots.dtype == np.complex128
        for name in ("step", "step_floor", "step_ceiling", "to_obj", "from_obj"):
            assert callable(getattr(m, name))


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


@pytest.fixture(scope="module")
def built_annulus(fixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("built_annulus")
    assert main(["annulus", *_pair_args("annulus", fixture_dir), "--delta", "0.3",
                 "--n", "256", "--epsilon", "0.015625", "--grid", "64",
                 "--out", str(out)]) == 0
    return out


def test_verify_annulus_dump_curves_in_either_order(built_annulus, fixture_dir, tmp_path):
    files = _pair_args("annulus", fixture_dir)
    for order in (files, files[::-1]):
        out = tmp_path / "verify"
        argv = ["verify", str(built_annulus / "system.json"), "--delta", "0.3",
                "--grid", "64", "--out", str(out)]
        for f in order:
            argv += ["--curve", f]
        assert main(argv) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pass"] is True
        assert "annulus" not in report["config"]


@pytest.mark.parametrize("command", ["render", "verify"])
def test_annulus_dump_with_shapes_in_two_frames_exits_geometry(
        command, built_annulus, fixture_dir, tmp_path, capsys):
    # the map works in the outer shape's frame, so an inner shape shifted
    # by another t would be rendered in the wrong place
    obj = json.loads((built_annulus / "system.json").read_text())
    obj["inner_shape"]["t"] = [5.0, 5.0]
    bad = tmp_path / "system.json"
    bad.write_text(json.dumps(obj))
    argv = [command, str(bad), "--grid", "32", "--out", str(tmp_path / "out")]
    if command == "verify":
        argv += ["--delta", "0.3"]
        for f in _pair_args("annulus", fixture_dir):
            argv += ["--curve", f]
    assert main(argv) == 3
    assert "error [GEOMETRY_REJECTED]" in capsys.readouterr().err


def test_annulus_dump_with_bands_renders_and_verifies_alike(built_annulus, fixture_dir,
                                                            tmp_path):
    # an annulus dump may also hold the bands E and F and the curve gap xi;
    # all three follow from the certificate's config and the input curves,
    # and a dump that carries them renders and verifies byte for byte like
    # one that does not
    from juliafit.dumps import load_dump
    from juliafit.rational import AnnulusSystem, SCertificate, certify_S

    cert = json.loads((built_annulus / "certificate.json").read_text())
    cfg = cert["config"]
    t = complex(*cfg["t_used"])
    outer, inner = (curves.load_curve(f) for f in _pair_args("annulus", fixture_dir))
    bands = [curves.offset_annulus(c, cfg["eps_geom_used"]).translated(-t)
             for c in (outer, inner)]
    assert cfg["xi"] == curves.curve_gap(outer, inner)
    system = load_dump(built_annulus / "system.json", (AnnulusSystem,))
    assert certify_S(system, *bands, cfg["samples"]) == SCertificate.from_obj(cert)

    pts = lambda c: [[float(z.real), float(z.imag)] for z in c.points]
    obj = json.loads((built_annulus / "system.json").read_text())
    obj.update({f"{side}_band": {"outer": pts(b.outer), "inner": pts(b.inner),
                                 "width_hint": 2.0 * cfg["eps_geom_used"]}
                for side, b in zip(("outer", "inner"), bands)}, xi=cfg["xi"])
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / "system.json").write_text(json.dumps(obj, indent=1) + "\n")
    certificate = ["--certificate", str(built_annulus / "certificate.json"), "--grid", "32"]
    verify = ["--delta", "0.3"] + [a for f in _pair_args("annulus", fixture_dir)
                                   for a in ("--curve", f)]
    for name, dump in (("new", built_annulus / "system.json"),
                       ("old", tmp_path / "old" / "system.json")):
        for command, extra in (("render", []), ("verify", verify)):
            assert main([command, str(dump), *certificate, *extra,
                         "--out", str(tmp_path / name / command)]) == 0
    for command, files in (("render", ("field.json", "image.pgm")),
                           ("verify", ("report.json",))):
        for f in files:
            assert ((tmp_path / "old" / command / f).read_bytes()
                    == (tmp_path / "new" / command / f).read_bytes()), (command, f)


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


@pytest.mark.parametrize("command,curves", [("build", 1), ("rational", 2), ("annulus", 2)])
def test_one_exterior_map_per_curve(command, curves, fixture_dir, tmp_path, monkeypatch,
                                    capsys):
    # each call logs its pid to a file, which a forked worker's call would
    # reach too: with two CPUs every curve is still fitted in this process
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    log = tmp_path / "calls.txt"
    real = conformal.build_exterior_map

    def counting(curve, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(curve, *args, **kwargs)

    monkeypatch.setattr(conformal, "build_exterior_map", counting)
    if command == "build":
        argv = ["build", str(fixture_dir / "circle.txt"), "--n", "64"]
    else:
        argv = [command, *_pair_args(command, fixture_dir), "--delta", "0.3",
                "--n", "256", "--epsilon", "0.015625", "--grid", "64"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().err.splitlines()
    calls = log.read_text().splitlines()
    assert calls == [str(os.getpid())] * curves
    assert sum(line.startswith("map ready: boundary rmse ") for line in lines) == curves


@pytest.mark.parametrize("option,code", [(["c_shape"], "BAD_BASEPOINT"),
                                         (["square", "--eps-geom", "0.001"], "NO_EPSILON")])
@pytest.mark.parametrize("command,first", [("rational", "circle_left"),
                                           ("annulus", "ring_outer")])
def test_later_curve_error_after_first_map(command, first, option, code, fixture_dir,
                                           tmp_path, capsys):
    # the first curve fits and the later one fails (each case gives the later
    # curve, then its options): the run prints the first curve's map and
    # then the later curve's error
    later, *option = option
    argv = [command, str(fixture_dir / f"{first}.txt"), str(fixture_dir / f"{later}.txt"),
            *option, "--grid", "64"]
    assert main(argv + ["--out", str(tmp_path)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("map ready: boundary rmse ")
    assert lines[1].startswith(f"error [{code}]: ")


#: the test process, which a task meant for a pool worker must not end
_TEST_PROCESS = os.getpid()


def _die():
    """End this pool worker at once, as a kill for memory would."""
    assert os.getpid() != _TEST_PROCESS, "a task meant for a worker ran in the test process"
    os._exit(1)


def _dead_tile(*task):
    _die()


@pytest.mark.parametrize("command", ["render"])
def test_a_dead_worker_exits_io(command, built_square, tmp_path, monkeypatch, capsys):
    # a worker that dies breaks the render's tile pool; the run exits 6 with
    # one line and leaves no process behind. The pool pickles its tasks'
    # function by name, so the stand-in lives at module level
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(juliafit.render, "SERIAL_WORK", 0)
    monkeypatch.setattr(juliafit.render, "_render_tile", _dead_tile)
    # 128 rows make two tiles
    assert main([command, str(built_square / "shape.json"), "--grid", "128",
                 "--out", str(tmp_path)]) == 6
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("io error: a worker process died: ")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("resample", [48, 128, 256])
def test_square_certifies_on_a_short_chain(resample, fixture_dir, tmp_path):
    # a coarse map only proposes roots; the certificate passes them
    assert main(["build", str(fixture_dir / "square.txt"), "--resample", str(resample),
                 "--out", str(tmp_path)]) == 0
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["passed"] is True and cert["n_certified"] == 8


def test_annulus_around_square_verifies_on_a_short_chain(fixture_dir, tmp_path):
    assert main(["annulus", str(fixture_dir / "ring_outer.txt"),
                 str(fixture_dir / "square.txt"), "--resample", "48", "--grid", "64",
                 "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "report.json").read_text())["pass"] is True


@pytest.mark.parametrize("command, names, degree", [
    ("build", ["circle"], 8), ("build", ["ellipse"], 16), ("build", ["square"], 8),
    ("build", ["blob"], 32), ("rational", ["circle_left", "circle_right"], 64),
    ("annulus", ["ring_outer", "ring_inner"], 128)],
    ids=["circle", "ellipse", "square", "blob", "rational", "annulus"])
def test_default_chain_keeps_every_degree(command, names, degree, fixture_dir, tmp_path,
                                          capsys):
    # the default chain certifies every fixture at the degree and inflations
    # of a 512-stage chain; a default that raises a degree fails here
    argv = [command, *(str(fixture_dir / f"{n}.txt") for n in names)]
    if command != "build":
        argv += ["--delta", "0.3", "--grid", "16"]
    runs = []
    for resample in ([], ["--resample", "512"]):
        out = tmp_path / f"run{len(runs)}"
        assert main(argv + resample + ["--out", str(out)]) == 0
        inflations = [line.rsplit(" ", 1)[1] for line in capsys.readouterr().err.splitlines()
                      if line.startswith("map ready: ")]
        runs.append((json.loads((out / "certificate.json").read_text())["n_certified"],
                     inflations))
    default, fine = runs
    assert len(default[1]) == len(names)
    assert default == fine and default[0] == degree


def _fit_args(command, names, fixture_dir) -> tuple[list[str], list[str]]:
    """The curve files of a fixture run and its argv, without --out."""
    paths = [str(fixture_dir / f"{n}.txt") for n in names]
    return paths, [command, *paths] + ([] if command == "build"
                                       else ["--delta", "0.3", "--grid", "16"])


def _refitted(cfg, paths):
    """Each curve's exterior map and band in the map's frame, rebuilt from a
    run's configuration as the fit builds them."""
    curve_list = [curves.load_curve(p) for p in paths]
    t = curve_list[0].centroid if cfg["command"] == "build" else complex(*cfg["t_used"])
    out = []
    for curve in curve_list:
        band = curves.offset_annulus(curve, cfg["eps_geom_used"]).translated(-t)
        shifted = curve.translated(-t)
        m = conformal.build_exterior_map(shifted, shifted.centroid, resample=cfg["resample"])
        out.append((m, band.translated(-m.t)))
    return out, t


@pytest.mark.parametrize("command, names", [
    ("build", ["square"]), ("rational", ["circle_left", "circle_right"]),
    ("annulus", ["ring_outer", "ring_inner"])], ids=["build", "rational", "annulus"])
def test_roots_use_half_the_largest_inflation(command, names, fixture_dir, tmp_path, capsys):
    # each curve's epsilon_max is its band's select_epsilon, its roots use
    # half of it, and its "map ready" line ends with the one they use
    paths, argv = _fit_args(command, names, fixture_dir)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    cfg = json.loads((tmp_path / "certificate.json").read_text())["config"]
    largest, used = cfg["epsilon_max"], cfg["epsilon_used"]
    if command == "build":
        largest, used = [largest], [used]
    maps, _ = _refitted(cfg, paths)
    assert largest == [shapepoly.select_epsilon(m, band) for m, band in maps]
    assert used == [eps / 2 for eps in largest]
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("map ready: ")]
    assert [line.rsplit(" ", 1)[1] for line in lines] == [repr(eps) for eps in used]


def test_given_inflation_places_the_roots(fixture_dir, tmp_path, monkeypatch, capsys):
    # --epsilon is the inflation the roots use, and no search runs
    def no_search(*args):
        raise AssertionError("select_epsilon ran under --epsilon")

    monkeypatch.setattr(shapepoly, "select_epsilon", no_search)
    paths, argv = _fit_args("build", ["circle"], fixture_dir)
    # twice what a default build of the circle uses
    assert main(argv + ["--epsilon", "0.125", "--out", str(tmp_path)]) == 0
    cfg = json.loads((tmp_path / "certificate.json").read_text())["config"]
    assert cfg["epsilon_max"] is None and cfg["epsilon_used"] == 0.125
    shape = json.loads((tmp_path / "shape.json").read_text())
    [(m, _)], t = _refitted(cfg, paths)
    want = shapepoly.sample_roots(m, 0.125, shape["n"], t=t).roots
    got = np.array([complex(a, b) for a, b in shape["roots"]])
    assert got.tobytes() == want.tobytes()
    [line] = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("map ready: ")]
    assert line.endswith(", largest inflation not searched, inflation 0.125")


@pytest.mark.parametrize("command, names", [
    ("build", ["circle"]), ("build", ["ellipse"]), ("build", ["square"]),
    ("build", ["blob"]), ("rational", ["circle_left", "circle_right"])],
    ids=["circle", "ellipse", "square", "blob", "rational"])
def test_half_inflation_raises_no_degree(command, names, fixture_dir, tmp_path):
    # the roots at the largest inflation, the rule before half of it, need
    # no fewer roots; both bands of the rational pair share their largest
    # inflation, so --epsilon can give it
    _, argv = _fit_args(command, names, fixture_dir)
    assert main(argv + ["--out", str(tmp_path / "half")]) == 0
    half = json.loads((tmp_path / "half" / "certificate.json").read_text())
    largest = half["config"]["epsilon_max"]
    [largest] = set(largest) if command != "build" else {largest}
    assert main(argv + ["--epsilon", repr(largest), "--out", str(tmp_path / "full")]) == 0
    full = json.loads((tmp_path / "full" / "certificate.json").read_text())
    assert half["n_certified"] <= full["n_certified"]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("command", ["rational", "annulus"])
def test_fit_matches_pinned_digest_at_any_cpu_count(command, cpus, fixture_dir, tmp_path,
                                                    monkeypatch, capsys):
    # the curves are fitted in this process at any CPU count, and a 64 x 64
    # render stays under the render's pool threshold: no byte depends on it
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    out = tmp_path / command
    assert main([command, *_pair_args(command, fixture_dir), "--delta", "0.3",
                 "--grid", "64", "--out", str(out)]) == 0
    assert _digest(out, capsys.readouterr().err)[0] == CLI_DIGESTS[command]


@pytest.fixture(scope="module")
def square_field(built_square, tmp_path_factory):
    """The field dump of the built square over a window that holds the
    0.3-neighbourhood of the square."""
    out = tmp_path_factory.mktemp("square_field")
    assert main(["render", str(built_square / "shape.json"),
                 "--certificate", str(built_square / "certificate.json"),
                 "--grid", "32", "--bbox", "-0.6", "-0.6", "1.6", "1.6",
                 "--out", str(out)]) == 0
    return json.loads((out / "field.json").read_text())


def _malformed_dump(case, built, field):
    """Text of a dump that is broken in the way `case` names, made from the
    valid shape dump and certificate in `built` or the valid field dump
    `field`."""
    shape = json.loads((built / "shape.json").read_text())
    if case == "not-json":
        return "{ not json"
    if case == "shape-without-roots":
        return json.dumps({k: v for k, v in shape.items() if k != "roots"})
    if case == "shape-with-nan-root":
        return json.dumps(dict(shape, roots=[[math.nan, 0.5]] + shape["roots"][1:]))
    if case == "shape-with-nan-t":
        return json.dumps(dict(shape, t=[math.nan, 0.0]))
    if case == "shape-with-infinite-basepoint":
        return json.dumps(dict(shape, basepoint=[0.0, math.inf]))
    if case == "nested-shape-of-wrong-kind":
        return json.dumps({"kind": "multi_shape_system", "t": shape["t"],
                           "shapes": [dict(shape, kind="annulus_map_system")]})
    if case == "field-without-width":
        return json.dumps({"kind": "escape_field", "bbox": [[0, 0], [1, 1]],
                           "height": 16, "escape_radius": 2.0,
                           "capture_radius": 0.5, "max_iter": 10,
                           "status_b64": "", "iterations_b64": ""})
    if case == "field-with-nan-bbox":
        return json.dumps(dict(field, bbox=[[-0.6, math.nan], [1.6, 1.6]]))
    if case == "field-with-inverted-bbox":
        return json.dumps(dict(field, bbox=[[1.6, -0.6], [-0.6, 1.6]]))
    if case == "field-with-negative-height":
        return json.dumps(dict(field, height=-1))
    if case == "certificate-without-radii":
        return json.dumps({"kind": "escape_certificate", "passed": True})
    if case == "certificate-capture-above-escape":
        cert = json.loads((built / "certificate.json").read_text())
        return json.dumps(dict(cert, d_inner=5.0))
    if case == "certificate-infinite-escape":
        cert = json.loads((built / "certificate.json").read_text())
        return json.dumps(dict(cert, beta=math.inf))
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
    ("render", "shape-with-nan-root"),
    ("verify", "shape-with-nan-root"),
    ("render", "shape-with-nan-t"),
    ("verify", "shape-with-nan-t"),
    ("render", "shape-with-infinite-basepoint"),
    ("render", "certificate-capture-above-escape"),
    ("verify", "certificate-capture-above-escape"),
    ("render", "certificate-infinite-escape"),
    ("verify", "certificate-infinite-escape"),
    ("verify", "field-with-nan-bbox"),
    ("verify", "field-with-inverted-bbox"),
    ("verify", "field-with-negative-height"),
])
def test_malformed_dump_exits_parse(command, case, built_square, square_field,
                                    fixture_dir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(_malformed_dump(case, built_square, square_field))
    dump, cert = bad, built_square / "certificate.json"
    if case.startswith("certificate-"):
        dump, cert = built_square / "shape.json", bad
    argv = [command, str(dump), "--certificate", str(cert), "--grid", "32",
            "--out", str(tmp_path / "out")]
    if command == "verify":
        argv += ["--curve", str(fixture_dir / "square.txt"), "--delta", "0.3"]
    assert main(argv) == 2
    assert "error [PARSE_ERROR]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["render", "verify"])
def test_default_radii_with_a_root_at_the_origin_exit_parse(command, built_square,
                                                            fixture_dir, tmp_path, capsys):
    # without --certificate the capture radius is half the smallest root
    # modulus, which a root at the frame origin makes 0; the basepoint moves
    # off the origin, where it would sit on that root
    shape = json.loads((built_square / "shape.json").read_text())
    bad = tmp_path / "shape.json"
    bad.write_text(json.dumps(dict(shape, basepoint=[0.1, 0.1],
                                   roots=[[0.0, 0.0]] + shape["roots"][1:])))
    argv = [command, str(bad), "--grid", "32", "--out", str(tmp_path / "out")]
    if command == "verify":
        argv += ["--curve", str(fixture_dir / "square.txt"), "--delta", "0.3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error [PARSE_ERROR]" in err and "--certificate" in err


def test_basepoint_on_a_root_exits_geometry(built_square, tmp_path, capsys):
    # the leading coefficient -1/prod(p - r_k) does not exist there
    shape = json.loads((built_square / "shape.json").read_text())
    bad = tmp_path / "shape.json"
    bad.write_text(json.dumps(dict(shape, basepoint=shape["roots"][3])))
    assert main(["render", str(bad), "--grid", "32", "--out", str(tmp_path / "out")]) == 3
    assert "error [MAP_DIVERGED]" in capsys.readouterr().err


@pytest.mark.parametrize("command,bad", [
    ("build", ["--n", "4"]),
    ("build", ["--n-max", "4"]),
    ("build", ["--epsilon", "0"]),
    ("build", ["--eps-geom", "0"]),
    ("build", ["--seed", "-1"]),
    ("build", ["--resample", "4"]),
    ("render", ["--grid", "8"]),
    ("render", ["--max-iter", "-3"]),
    ("render", ["--workers", "2"]),  # no such option: the render picks its processes
    ("render", ["--margin", "-1"]),
    ("verify", ["--delta", "-1"]),
    ("rational", ["--delta", "0"]),
    ("rational", ["--samples", "0"]),
    ("build", ["--samples", "255"]),
    ("annulus", ["--samples", "100"]),
    ("annulus", ["--delta", "0"]),
    ("render", ["--bbox", "nan", "0", "1", "1"]),
    ("render", ["--bbox", "0", "0", "inf", "1"]),
    ("render", ["--bbox", "1", "1", "0", "0"]),
    ("render", ["--bbox", "0", "0.5", "1", "0.5"]),
    ("render", ["--max-iter", "4294967296"]),  # above the field's uint32 counts
])
def test_unusable_number_is_a_usage_error(command, bad, built_square, fixture_dir,
                                          tmp_path, capsys):
    shape = str(built_square / "shape.json")
    args = {"build": [str(fixture_dir / "circle.txt")],
            "render": [shape, "--grid", "64"],
            "verify": [shape, "--curve", str(fixture_dir / "square.txt"),
                       "--delta", "0.3", "--grid", "64"],
            "rational": _pair_args("rational", fixture_dir) + ["--grid", "64"],
            "annulus": _pair_args("annulus", fixture_dir) + ["--grid", "64"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, *bad, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_option_surface():
    # every option of every command, so that a knob added or removed shows here
    common = ["-h", "--help", "--out", "--seed"]
    build = ["--samples", "--n", "--n-max", "--epsilon", "--eps-geom", "--resample"]
    render = ["--grid", "--max-iter"]
    want = {"build": common + build,
            "render": common + render + ["--certificate", "--bbox", "--margin"],
            "verify": common + render + ["--curve", "--delta", "--certificate"],
            "rational": common + build + render + ["--delta"],
            "annulus": common + build + render + ["--delta", "--basepoint"]}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(s for a in p._actions for s in a.option_strings)
           for name, p in sub.choices.items()}
    assert got == {name: sorted(options) for name, options in want.items()}


#: the parameters and defaults of every library function the commands call,
#: and of the orbit classifier and the map evaluation beneath them. Each
#: value a command passes has one owner, its option: a default or an optional
#: argument that only tests use shows here
ENTRY_POINTS = {
    "conformal.build_exterior_map": "(curve, t, *, resample)",
    "conformal.evaluate_map": "(m, w)",
    "curves.curve_gap": "(a, b)",
    "curves.load_curve": "(path)",
    "curves.offset_annulus": "(curve, eps_geom)",
    "curves.relation": "(a, b)",
    "dumps.load_dump": "(path, types)",
    "dumps.save_dump": "(item, path)",
    "dumps.write_json": "(obj, path)",
    "dynamics.certify": "(shape, annulus, samples_per_region)",
    "dynamics.classify_orbits":
        "(kernel, z, escape_radius, capture_radius, max_iter, floor, ceiling)",
    "dynamics.find_min_degree": "(build, certify, n_schedule)",
    "dynamics.save_certificate": "(cert, path, config)",
    "rational.certify_S": "(system, E, F, samples_per_region)",
    "rational.certify_multi": "(system, annuli, samples_per_region)",
    "rational.validate_mutually_exterior": "(annuli)",
    "render.render":
        "(kernel, bbox, width, height, *, escape_radius, capture_radius, max_iter)",
    "render.save_field": "(field, path, config)",
    "render.verify_hausdorff": "(field, curves, delta)",
    "render.write_image": "(field, path)",
    "shapepoly.sample_roots": "(m, epsilon, n, t)",
    "shapepoly.select_epsilon": "(m, annulus)",
}


def test_entry_point_signatures():
    def parameters(fn) -> str:
        sig = inspect.signature(fn)
        return str(sig.replace(
            parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
            return_annotation=sig.empty))

    got = {}
    for name in ENTRY_POINTS:
        module, function = name.split(".")
        got[name] = parameters(getattr(sys.modules[f"juliafit.{module}"], function))
    assert got == ENTRY_POINTS


#: sha256 over the name and bytes of every artifact and the stderr of each
#: run of test_cli_artifact_digest_regression; any change to an output, its
#: configuration included, flips one of these. On a mismatch the test names
#: the sha256 of each artifact of the runs that changed, and their stderr
CLI_DIGESTS = {
    "build-square": "73923cd2c910b95ab60b6d3d28eb4306713148fffbd0c0396c39c285be5f72ae",
    "build-square-verify": "e5860b83879cd542ceea2880113b48f7d7c1a3b6da473cf0ec05f8ec22603370",
    "build-blob": "461bc38bd9c567db3b7f7404dd193ea29c13c7a1a5d12cf5c3eef5b11de57f23",
    "build-blob-verify": "17dcb31395e96d056f04b3b3b9d9c65e6d7dedc0925e2a7d59c7278d6b7f8fbd",
    "build-circle": "94a99fcfe193953e3d39097c288c4a03e21e2db12addebd909d9c421f0c03cd3",
    "build-circle-verify": "121601bed33d151fff5127cde9bb7dbc77fd5b30e2e033c747cf382c1520be52",
    "rational": "c5d52b101ddc56f39969376796483754286df528dc48d4181824d3d63213c044",
    "rational-verify": "dd09f2580151963899b4cb2583d594e222d90b516340aa7be3cdf0cfe01ddf7d",
    "annulus": "48e17bb673fa258459ecce3fe36fabdbbbd8baba0410d7ad036751d8b639dc0c",
    "annulus-verify": "226a0a8b496c3050a88b5c53efa45aef9099326a5887702992ef0e29aa844cf1",
    "build-square-render": "bdbcd9ca33bdcb6aacfe62067d0c1b574426d17246ebe47a76f5e216d8bf7e05",
    "build-square-render-bbox": "40c9ed45fba536dc8df2c93412165752f33d8b0a93ea94471fb57cc4eb29cf63",
    "rational-render": "17b7d9c5e46cde10e96adb087da62fb9608474414555b94c031967b486abe915",
    "annulus-render": "e9018dfb2b4e05b86dd0332678268adf2122d16130e6e13c6dc2c6b37f0ab8dc",
}


def _digest(out, err: str) -> tuple[str, dict]:
    """The run's digest, and the sha256 of each of its artifacts and its
    stderr text."""
    h = hashlib.sha256()
    parts = {}
    for p in sorted(out.iterdir()):
        data = p.read_bytes()
        h.update(p.name.encode() + b"\0" + data)
        parts[p.name] = hashlib.sha256(data).hexdigest()
    h.update(b"stderr\0" + err.encode())
    return h.hexdigest(), dict(parts, stderr=err)


def test_cli_artifact_digest_regression(fixture_dir, tmp_path, capsys):
    f = lambda name: str(fixture_dir / f"{name}.txt")
    runs = [(f"build-{n}", ["build", f(n)], [f(n)]) for n in ("square", "blob", "circle")]
    runs += [("rational", ["rational", f("circle_left"), f("circle_right")],
              [f("circle_left"), f("circle_right")]),
             ("annulus", ["annulus", f("ring_outer"), f("ring_inner")],
              [f("ring_inner"), f("ring_outer")])]
    grid = ["--grid", "64"]
    got, parts = {}, {}
    for name, argv, targets in runs:
        out = tmp_path / name
        if argv[0] != "build":
            argv = argv + ["--delta", "0.3"] + grid
        assert main(argv + ["--out", str(out)]) == 0
        got[name], parts[name] = _digest(out, capsys.readouterr().err)
        dump = out / ("shape.json" if argv[0] == "build" else "system.json")
        verify = ["verify", str(dump), "--certificate", str(out / "certificate.json"),
                  "--delta", "0.3", *grid, "--out", str(tmp_path / f"{name}-verify")]
        for c in targets:
            verify += ["--curve", c]
        assert main(verify) == 0
        got[f"{name}-verify"], parts[f"{name}-verify"] = _digest(
            tmp_path / f"{name}-verify", capsys.readouterr().err)
    # render of each kind of map, and of a given window
    bbox = ["--bbox", "-0.25", "-0.25", "1.25", "1.25"]
    for name, dump, extra in (("build-square", "shape.json", []),
                              ("build-square", "shape.json", bbox),
                              ("rational", "system.json", []),
                              ("annulus", "system.json", [])):
        render = f"{name}-render" + ("-bbox" if extra else "")
        assert main(["render", str(tmp_path / name / dump), "--certificate",
                     str(tmp_path / name / "certificate.json"), *grid, *extra,
                     "--out", str(tmp_path / render)]) == 0
        got[render], parts[render] = _digest(tmp_path / render, capsys.readouterr().err)
    changed = {name: parts[name] for name in got if got[name] != CLI_DIGESTS.get(name)}
    assert got == CLI_DIGESTS, "changed runs:\n" + json.dumps(changed, indent=1)
