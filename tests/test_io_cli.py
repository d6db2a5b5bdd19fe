import hashlib
import io as _io
import json

import pytest

import dsx
from dsx import io as dio
from dsx.cli import run


def test_delta_roundtrip(tmp_path):
    K = dsx.geometric_product(dsx.standard("simplex", 1),
                              dsx.cycle_graph(3))
    path = tmp_path / "k.json"
    dio.write_delta(K, path)
    L = dio.read_delta(path)
    assert L.counts() == K.counts()
    assert set(L.dim_of) == set(K.dim_of)
    assert all(L.faces[s] == K.faces[s] for s in K.dim_of)


def test_based_roundtrip(tmp_path):
    K = dsx.smash(dsx.circle(), dsx.s_bracket(3))
    path = tmp_path / "k.json"
    dio.write_delta(K, path)
    L = dio.read_delta(path)
    assert L.based
    assert all(L.faces[s] == K.faces[s] for s in K.dim_of)


def test_loader_refuses_invalid(tmp_path):
    bad = {
        "dims": 2,
        "simplices": {"0": ["a", "b", "c"], "1": ["x", "y", "z"],
                      "2": ["t"]},
        "faces": {"x": ["b", "a"], "y": ["c", "b"], "z": ["c", "a"],
                  "t": ["z", "y", "x"]},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(dio.SchemaError):
        dio.read_delta(path)


def test_loader_refuses_star_in_unbased(tmp_path):
    bad = {"dims": 1, "simplices": {"0": ["a"], "1": ["x"]},
           "faces": {"x": ["a", "*"]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(dio.SchemaError):
        dio.read_delta(path)


@pytest.mark.parametrize("bad", [
    # faces is not an object
    {"dims": 1, "simplices": {"0": ["a"], "1": ["e"]}, "faces": []},
    # a face entry is not a list, or not a list of names
    {"dims": 1, "simplices": {"0": ["a"], "1": ["e"]}, "faces": {"e": 3}},
    {"dims": 1, "simplices": {"0": ["a"], "1": ["e"]},
     "faces": {"e": [["a"], "a"]}},
    # simplices of a dimension are not a list
    {"dims": 0, "simplices": {"0": "ab"}, "faces": {}},
    # faces for a simplex that is not declared
    {"dims": 0, "simplices": {"0": ["a"]}, "faces": {"ghost": ["a", "a"]}},
    # dims disagrees with the top dimension, or is not an integer
    {"dims": 5, "simplices": {"0": ["a"]}, "faces": {}},
    {"dims": 0, "simplices": {"0": ["a"], "1": ["e"]},
     "faces": {"e": ["a", "a"]}},
    {"dims": "1", "simplices": {"0": ["a"], "1": ["e"]},
     "faces": {"e": ["a", "a"]}},
    {"dims": 0, "simplices": {}, "faces": {}},
    # based is not a boolean
    {"dims": 0, "simplices": {"0": ["a"]}, "based": "false"},
    # simplices of a negative dimension
    {"simplices": {"-1": ["m"], "0": ["a", "b"], "1": ["e"]},
     "faces": {"e": ["b", "a"]}},
    # "00" is not str(0); read as 0, it would drop the vertex a
    {"simplices": {"0": ["a"], "00": ["b"], "1": ["e"]},
     "faces": {"e": ["b", "b"]}},
    # dimension keys that int() reads but that are not str(d)
    {"simplices": {"0": ["a", "b"], "0_1": ["e"]}, "faces": {"e": ["b", "a"]}},
    {"simplices": {"+0": ["a"]}, "faces": {}},
    {"simplices": {"0": ["a", "b"], " 1": ["e"]}, "faces": {"e": ["b", "a"]}},
])
def test_loader_refuses_malformed(tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(dio.SchemaError):
        dio.read_delta(path)
    if "based" not in bad:
        bad["based"] = True
        path.write_text(json.dumps(bad))
        with pytest.raises(dio.SchemaError):
            dio.read_delta(path)


def test_loader_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(dio.SchemaError):
        dio.read_delta(path)


def test_loader_accepts_written_dims(tmp_path):
    for K in (dsx.EMPTY, dsx.standard("boundary", 2), dsx.circle()):
        path = tmp_path / "k.json"
        dio.write_delta(K, path)
        assert dio.read_delta(path) == K
    path.write_text(json.dumps({"simplices": {"0": ["a"]}}))
    assert dio.read_delta(path).counts() == (1,)


def test_cli_validate_refuses_ghost_faces(tmp_path):
    path = tmp_path / "ghost.json"
    path.write_text(json.dumps({"dims": 5, "simplices": {"0": ["a"]},
                                "faces": {"ghost": ["a", "a"]}}))
    status, report = run(["validate", str(path)], stream=_io.StringIO())
    assert status == 2
    assert "error" in report


def test_morphism_roundtrip(tmp_path):
    K = dsx.s_bracket(3)
    C = dsx.circle()
    dio.write_delta(K, tmp_path / "k.json")
    dio.write_delta(C, tmp_path / "c.json")
    f = dsx.nabla(3)
    data = dio.morphism_to_dict(f, "k.json", "c.json")
    (tmp_path / "f.json").write_text(json.dumps(data))
    g = dio.read_morphism(tmp_path / "f.json")
    assert g.mapping == f.mapping


def test_loaded_faces_are_the_declared_name_objects(tmp_path):
    K = dsx.s_bracket(3)
    assert K.based
    dio.write_delta(K, tmp_path / "k.json")
    L = dio.read_delta(tmp_path / "k.json")
    declared = {id(s) for _, s in L.all_cells()}
    faces = [f for fs in L.faces.values() for f in fs if f is not None]
    assert faces and all(id(f) in declared for f in faces)


def test_complex_roundtrip(tmp_path):
    C = dsx.chain_complex(dsx.from_simplicial_complex([[0, 1, 2], [1, 2, 3]]))
    path = tmp_path / "c.json"
    dio.write_complex(C, path)
    D = dio.read_complex(path)
    assert D.ranks == C.ranks
    assert D.d == C.d


def test_certificate_roundtrip(tmp_path):
    CK, incl, cert = dsx.cone(dsx.cycle_graph(3))
    path = tmp_path / "cert.json"
    dio.write_certificate(cert, path)
    loaded = dio.read_certificate(path)
    assert loaded.verify()
    assert len(loaded) == len(cert)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write(tmp_path, name, K):
    p = tmp_path / name
    dio.write_delta(K, p)
    return str(p)


def test_cli_validate_and_exit_codes(tmp_path):
    out = _io.StringIO()
    path = _write(tmp_path, "d2.json", dsx.standard("simplex", 2))
    status, report = run(["validate", path], stream=out)
    assert status == 0
    assert report["checks"][0]["verdict"] == "PASS"
    status, _ = run(["validate", str(tmp_path / "missing.json")], stream=out)
    assert status == 2
    status, _ = run(["no-such-command"], stream=out)
    assert status == 2
    # no command builds what the cell budget cannot bound in advance
    status, _ = run(["fill-horns", path, "--max-dim", "1", "--rounds", "1",
                     "--out", str(tmp_path / "f.json")], stream=out)
    assert status == 2


def test_cli_homology_empty_delta(tmp_path):
    path = _write(tmp_path, "empty.json", dsx.EMPTY)
    out = _io.StringIO()
    status, report = run(["homology", path], stream=out)
    assert status == 0
    assert all(v == "0" for v in report["tables"]["homology"].values())


def test_cli_homology_coefficients(tmp_path):
    path = _write(tmp_path, "rp2.json", dsx.from_simplicial_complex(
        [[0, 1, 4], [0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 3, 5],
         [1, 2, 3], [1, 2, 5], [1, 3, 4], [2, 4, 5], [3, 4, 5]]))
    out = _io.StringIO()
    status, report = run(["homology", path, "--coeff", "Fp", "--p", "2"],
                         stream=out)
    assert status == 0
    assert report["tables"]["homology"] == {"0": "F_2", "1": "F_2",
                                            "2": "F_2"}
    status, report = run(["homology", path, "--coeff", "Q"], stream=out)
    assert status == 0
    assert report["tables"]["homology"] == {"0": "Q", "1": "0", "2": "0"}
    status, _ = run(["homology", path, "--coeff", "Fp"], stream=out)
    assert status == 2


@pytest.mark.parametrize("coeff", [[], ["--coeff", "Z"], ["--coeff", "Q"]],
                         ids=["default", "Z", "Q"])
def test_cli_homology_refuses_a_prime_without_fp(tmp_path, coeff):
    # --p names the field of --coeff Fp; over Z or Q it would be ignored
    path = _write(tmp_path, "c.json", dsx.cycle_graph(3))
    status, report = run(["homology", path, "--p", "3"] + coeff,
                         stream=_io.StringIO())
    assert status == 2
    assert "--p needs --coeff Fp" in report["error"]


def test_cli_has_no_seed_and_no_uv_trials(tmp_path):
    # the u/v identities are proved in dgred's docstring, not sampled, so
    # nothing is left for a seed or a trial count to steer
    K = _write(tmp_path, "d2.json", dsx.standard("simplex", 2))
    X = tmp_path / "x.json"
    dio.write_complex(dsx.point_complex(0, 1), X)
    for argv in (["--seed", "1", "validate", K],
                 ["dg", "reduce", str(X), "--n", "2", "--uv-trials", "1"]):
        status, report = run(argv, stream=_io.StringIO())
        assert status == 2
        assert report == {"error": "argument parsing"}


def test_cli_homology_over_a_large_prime(tmp_path):
    # a prime near 10**18 is parsed at once, not by trial division
    path = _write(tmp_path, "c.json", dsx.cycle_graph(3))
    p = 10**18 + 3
    status, report = run(["homology", path, "--coeff", "Fp", "--p", str(p)],
                         stream=_io.StringIO())
    assert status == 0
    assert report["tables"]["homology"] == {"0": f"F_{p}", "1": f"F_{p}"}


def test_cli_product_and_smash(tmp_path):
    a = _write(tmp_path, "a.json", dsx.standard("simplex", 1))
    outp = str(tmp_path / "prod.json")
    out = _io.StringIO()
    status, report = run(["product", a, a, "--out", outp], stream=out)
    assert status == 0
    assert report["tables"]["counts"] == [4, 5, 2]
    P = dio.read_delta(outp)
    assert P.counts() == (4, 5, 2)
    s1 = _write(tmp_path, "s1.json", dsx.circle())
    outs = str(tmp_path / "smash.json")
    status, report = run(["smash", s1, s1, "--out", outs], stream=out)
    assert status == 0
    # smash of unbased input is a schema-level error
    status, _ = run(["smash", a, a, "--out", outs], stream=out)
    assert status == 2


def test_cli_cone_and_certify(tmp_path):
    b = _write(tmp_path, "bd.json", dsx.standard("boundary", 2))
    d = _write(tmp_path, "d2.json", dsx.standard("simplex", 2))
    outp = str(tmp_path / "cone.json")
    certp = str(tmp_path / "cone_cert.json")
    out = _io.StringIO()
    status, report = run(["cone", b, "--out", outp,
                          "--certificate", certp], stream=out)
    assert status == 0
    assert report["checks"][0]["moves"] == 6
    assert dio.read_certificate(certp).verify()
    # boundary in simplex: no certificate, homology obstruction
    status, report = run(["certify", b, d], stream=out)
    assert status == 0
    assert report["tables"]["verdict"] == "OBSTRUCTED"
    status, report = run(["certify", b, d, "--require-pass"], stream=out)
    assert status == 1
    assert report["checks"] == [{"name": "certified", "verdict": "FAIL",
                                 "result": "OBSTRUCTED"}]
    # horn in simplex: certified
    h = _write(tmp_path, "horn.json", dsx.standard("horn", 2, 1))
    out = _io.StringIO()
    status, report = run(["certify", h, d, "--require-pass"], stream=out)
    assert status == 0
    assert report["tables"]["verdict"] == "CERTIFIED"
    assert report["checks"] == [{"name": "certified", "verdict": "PASS",
                                 "result": "CERTIFIED"}]
    assert out.getvalue().splitlines()[0] == \
        '[PASS] certified {"result": "CERTIFIED"}'


def test_cli_certify_needs_no_recursion_per_move(tmp_path):
    # the cone of C13 x C13 collapses to its apex in 1,014 moves, more
    # than Python's default recursion limit
    K = dsx.geometric_product(dsx.cycle_graph(13), dsx.cycle_graph(13))
    CK, _, _ = dsx.cone(K)
    apex = _write(tmp_path, "apex.json", dsx.SubDeltaSet(CK, ["apex"])
                  .as_delta_set())
    cone = _write(tmp_path, "cone.json", CK)
    out = _io.StringIO()
    status, report = run(["certify", apex, cone, "--require-pass"],
                         stream=out)
    assert status == 0
    assert report["tables"]["moves"] == K.n_cells() == 1014
    assert report["checks"][0]["verdict"] == "PASS"


def test_cli_certify_refuses_subcomplex_with_other_faces(tmp_path):
    L = dsx.standard("simplex", 2)
    e = L.cells(1)[0]
    x, y = L.faces[e]
    # the same names and dimensions, but the faces of e are swapped
    K = dsx.DeltaSet({0: [x, y], 1: [e]}, {e: (y, x)})
    status, report = run(["certify", _write(tmp_path, "k.json", K),
                          _write(tmp_path, "l.json", L), "--require-pass"],
                         stream=_io.StringIO())
    assert status == 2
    assert "error" in report


def test_cli_certify_compares_homology_over_both_degree_ranges(tmp_path):
    K = dsx.geometric_product(dsx.cycle_graph(3), dsx.cycle_graph(3))
    CK, _, _ = dsx.cone(K)
    apex = _write(tmp_path, "apex.json", dsx.SubDeltaSet(CK, ["apex"])
                  .as_delta_set())
    cone = _write(tmp_path, "cone.json", CK)
    status, report = run(["certify", apex, cone, "--budget", "1"],
                         stream=_io.StringIO())
    assert status == 0
    assert report["tables"]["verdict"] == "HOMOLOGY-ISO"
    point = {"0": "Z", "1": "0", "2": "0", "3": "0"}
    assert report["tables"]["homology"] == {"sub": point, "ambient": point}


def test_cli_cylinder(tmp_path):
    K = dsx.standard("boundary", 1)
    pt = dsx.standard("simplex", 0)
    dio.write_delta(K, tmp_path / "k.json")
    dio.write_delta(pt, tmp_path / "pt.json")
    fold = dsx.DeltaMorphism(K, pt, {"0": "0", "1": "0"})
    (tmp_path / "fold.json").write_text(
        json.dumps(dio.morphism_to_dict(fold, "k.json", "pt.json")))
    out = _io.StringIO()
    status, report = run(["cylinder", str(tmp_path / "fold.json"),
                          "--out", str(tmp_path / "mf.json")], stream=out)
    assert status == 0
    assert report["checks"][0]["verdict"] == "PASS"


@pytest.mark.parametrize("data", [
    {"map": {}},
    {"source": "k.json", "map": {}},
    {"source": "k.json", "target": 7, "map": {}},
    {"source": "k.json", "target": "pt.json", "map": []},
    {"source": "k.json", "target": "pt.json"},
    {"source": "k.json", "target": "pt.json", "map": {"0": ["0"]}},
    # a key that is not a simplex of the source
    {"source": "k.json", "target": "pt.json",
     "map": {"0": "0", "1": "0", "ghost": "0"}},
    # a based map that leaves out the image of the face v of z
    {"source": "s.json", "target": "s.json", "map": {"z": "z"}},
])
def test_cli_cylinder_refuses_malformed_morphism(tmp_path, data):
    dio.write_delta(dsx.standard("boundary", 1), tmp_path / "k.json")
    dio.write_delta(dsx.standard("simplex", 0), tmp_path / "pt.json")
    dio.write_delta(dsx.DeltaSet({0: ["v"], 1: ["z"]}, {"z": ("v", "v")},
                                 based=True), tmp_path / "s.json")
    (tmp_path / "m.json").write_text(json.dumps(data))
    status, report = run(["cylinder", str(tmp_path / "m.json"),
                          "--out", str(tmp_path / "out.json")],
                         stream=_io.StringIO())
    assert status == 2
    assert "error" in report


def test_cli_bockstein(tmp_path, moore3):
    path = _write(tmp_path, "m3.json", moore3.M)
    out = _io.StringIO()
    status, report = run(["bockstein", path, "--p", "3", "--degree", "3"],
                         stream=out)
    assert status == 0
    # only basis-free facts are reported: the rank and the dimensions
    assert report["tables"]["bockstein"] == \
        {"rank": 1, "source_dim": 1, "target_dim": 1}


def test_cli_moore_fast():
    out = _io.StringIO()
    status, report = run(["moore", "--p", "2"], stream=out)
    assert status == 0
    assert report["tables"]["moore"]["2"] == "Z/2"


def test_cli_dg(tmp_path):
    C = dsx.point_complex(0, 1)
    dio.write_complex(C, tmp_path / "x.json")
    out = _io.StringIO()
    status, report = run(["dg", "reduce", str(tmp_path / "x.json"),
                          "--n", "2"], stream=out)
    assert status == 0
    assert all(c["verdict"] == "PASS" for c in report["checks"])
    status, report = run(["dg", "tower", str(tmp_path / "x.json"),
                          "--n", "3", "--k", "4"], stream=out)
    assert status == 0
    assert report["checks"][0]["levels"] == 4


def test_cli_dg_checks_no_invariant_after_construction(tmp_path,
                                                      monkeypatch):
    # each ExteriorModule checks itself when built; the reports rerun no
    # check: t(X) is one module, and a tower of k levels is built from
    # 2k - 1 of them
    dio.write_complex(dsx.point_complex(0, 1), tmp_path / "x.json")
    checks = []
    check = dsx.ExteriorModule.check

    def counting_check(ext):
        checks.append(ext)
        return check(ext)

    monkeypatch.setattr(dsx.ExteriorModule, "check", counting_check)
    for argv, built in ((["reduce", "--n", "2"], 1),
                        (["tower", "--n", "3", "--k", "4"], 7)):
        checks.clear()
        status, report = run(["dg", argv[0], str(tmp_path / "x.json")]
                             + argv[1:], stream=_io.StringIO())
        assert status == 0
        assert all(c["verdict"] == "PASS" for c in report["checks"])
        assert len(checks) == built


GOOD_COMPLEX = {"degrees": [0, 1], "ranks": [1, 1],
                "boundaries": {"1": [[2]]}}


@pytest.mark.parametrize("change", [
    # a boundary wider, or taller, than the ranks
    {"boundaries": {"1": [[2, 0]]}},
    {"boundaries": {"1": [[2], [0]]}},
    # boundaries given as a list
    {"boundaries": [[[2]]]},
    # a negative rank
    {"ranks": [1, -1], "boundaries": {}},
    # an entry that is not an integer
    {"boundaries": {"1": [[1.5]]}},
    # a boundary in a degree outside "degrees"
    {"boundaries": {"1": [[2]], "2": [[1]]}},
    # fewer ranks than degrees
    {"degrees": [0, 2]},
], ids=["too-wide", "too-tall", "boundaries-list", "negative-rank",
        "float-entry", "outside-degrees", "short-ranks"])
def test_cli_dg_refuses_malformed_complex(tmp_path, change):
    path = tmp_path / "x.json"
    path.write_text(json.dumps(dict(GOOD_COMPLEX, **change)))
    status, report = run(["dg", "reduce", str(path), "--n", "2"],
                         stream=_io.StringIO())
    assert status == 2
    assert "error" in report


@pytest.mark.parametrize("argv", [["homology"], ["validate"]],
                         ids=["homology", "validate"])
@pytest.mark.parametrize("data", [{}, GOOD_COMPLEX], ids=["empty", "complex"])
def test_cli_refuses_files_without_simplices(tmp_path, monkeypatch, argv,
                                             data):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(data))
    status, report = run(argv[:1] + [str(path)] + argv[1:],
                         stream=_io.StringIO())
    assert status == 2
    assert "error" in report


@pytest.mark.parametrize("argv", [
    ["moore", "--p", "1"],
    ["moore", "--p", "3", "--power", "-1"],
    ["moore", "--p", "3", "--power", "0"],
    ["homology", "K", "--coeff", "Fp", "--p", "4"],
    ["bockstein", "K", "--p", "4", "--degree", "1"],
    ["dg", "reduce", "X", "--n", "0"],
    ["dg", "tower", "X", "--n", "2", "--k", "0"],
    ["bockstein", "K", "--p", "3", "--degree", "-1"],
    ["dg", "reduce", "X", "--n", "2", "--uv-trials", "-1"],
    ["dg", "tower", "X", "--n", "0", "--k", "2"],
    ["certify", "K", "L", "--budget", "-1"],
    ["certify", "K", "L", "--budget", "0"],
    ["moore", "--p", "3", "--coherence", "1"],
    ["moore", "--p", "3", "--coherence", "0"],
    ["moore", "--p", "3", "--coherence", "-3"],
    ["moore", "--p", "3", "--coherence", "3"],
    ["moore", "--p", "2", "--coherence", "2"],
    ["homology", "K", "--coeff", "Fp", "--p", str(2**64 + 13)],
])
def test_cli_refuses_out_of_range_numbers(argv):
    # refused while parsing, before any file is read
    status, report = run(argv, stream=_io.StringIO())
    assert status == 2
    assert report == {"error": "argument parsing"}


@pytest.mark.parametrize("argv", [
    ["moore", "--p", "5", "--coherence", "3"],
    ["moore", "--p", "3", "--power", "3"],
    ["moore", "--p", "3", "--power", "1000000"],
    ["moore", "--p", "1000003"],
])
def test_cli_refuses_moore_runs_past_the_cell_budget(argv, monkeypatch):
    # refused from the predicted size of M^i, before any smash is built
    def no_smash(factors):
        raise AssertionError("a smash product was built")

    for module in ("dsx.products", "dsx.moore"):
        monkeypatch.setattr(f"{module}.n_ary_smash", no_smash)
    status, report = run(argv, stream=_io.StringIO())
    assert status == 2
    assert "budget" in report["error"]


@pytest.mark.parametrize("argv", [
    ["moore", "--p", "7", "--power", "2", "--coherence", "2"],
    ["moore", "--p", "13", "--power", "2"],
])
def test_cli_moore_budget_admits_the_squares(argv, monkeypatch):
    class Admitted(Exception):
        pass

    def admitted(p):
        raise Admitted

    monkeypatch.setattr("dsx.cli.MooreSystem", admitted)
    with pytest.raises(Admitted):
        run(argv, stream=_io.StringIO())


def _no_products(monkeypatch):
    def refused(factors):
        raise AssertionError("a product was built")

    monkeypatch.setattr("dsx.products.n_ary_smash", refused)
    monkeypatch.setattr("dsx.products.n_ary_product", refused)


@pytest.mark.parametrize("command, K", [
    ("product", dsx.cycle_graph(600)),   # 2,160,000 cells predicted
    ("smash", dsx.s_bracket(600)),       # 2,157,601 cells predicted
])
def test_cli_refuses_products_past_the_cell_budget(tmp_path, monkeypatch,
                                                   command, K):
    path = _write(tmp_path, "k.json", K)
    _no_products(monkeypatch)
    status, report = run([command, path, path, "-o", str(tmp_path / "o")],
                         stream=_io.StringIO())
    assert status == 2
    assert "budget" in report["error"]
    assert not (tmp_path / "o").exists()


def test_cli_smash_budget_admits_the_moore_square(tmp_path, monkeypatch,
                                                  moore3):
    # M /\ M at p = 3 is predicted at 52,560 cells
    path = _write(tmp_path, "m.json", moore3.M)
    _no_products(monkeypatch)
    with pytest.raises(AssertionError, match="a product was built"):
        run(["smash", path, path, "-o", str(tmp_path / "o")],
            stream=_io.StringIO())


def _cone_and_cylinder_files(tmp_path):
    """A file holding C4 and the identity morphism of C4: cone(C4) has
    17 cells, the cylinder of the identity 32."""
    dio.write_delta(dsx.cycle_graph(4), tmp_path / "c4.json")
    identity = dsx.identity_morphism(dsx.cycle_graph(4))
    (tmp_path / "id.json").write_text(json.dumps(
        dio.morphism_to_dict(identity, "c4.json", "c4.json")))
    return {"cone": (str(tmp_path / "c4.json"), 17),
            "cylinder": (str(tmp_path / "id.json"), 32)}


@pytest.mark.parametrize("command", ["cone", "cylinder"])
def test_cli_refuses_cones_and_cylinders_past_the_cell_budget(
        tmp_path, monkeypatch, command):
    path, cells = _cone_and_cylinder_files(tmp_path)[command]

    def refused(*args):
        raise AssertionError("a cone or cylinder was built")

    monkeypatch.setattr("dsx.cli.cone", refused)
    monkeypatch.setattr("dsx.cli.mapping_cylinder", refused)
    out = str(tmp_path / "o.json")
    monkeypatch.setattr("dsx.cli.MAX_CELLS", cells - 1)
    status, report = run([command, path, "-o", out], stream=_io.StringIO())
    assert status == 2
    assert "budget" in report["error"]
    assert not (tmp_path / "o.json").exists()
    monkeypatch.setattr("dsx.cli.MAX_CELLS", cells)
    with pytest.raises(AssertionError, match="was built"):
        run([command, path, "-o", out], stream=_io.StringIO())


def test_cli_cone_refuses_a_file_holding_the_cone_point(tmp_path):
    CK, _, _ = dsx.cone(dsx.standard("boundary", 2))
    status, report = run(["cone", _write(tmp_path, "ck.json", CK),
                          "-o", str(tmp_path / "o.json")],
                         stream=_io.StringIO())
    assert status == 2
    assert "cone point" in report["error"]


def _complex_file(tmp_path, ranks):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"degrees": [0, len(ranks) - 1],
                                "ranks": list(ranks)}))
    return str(path)


def _no_dg(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a dg complex was built")

    monkeypatch.setattr("dsx.cli.order_tower", refused)
    monkeypatch.setattr("dsx.cli.reduce_mod_n", refused)


@pytest.mark.parametrize("ranks, argv", [
    # t(X) has 2|X| cells, tower level k has 2|X| * 3^(k - 1)
    ([10 ** 7], ["reduce", "--n", "2"]),
    ([500_001], ["reduce", "--n", "2"]),                # 1,000,002 cells
    ([10 ** 7], ["tower", "--n", "2", "--k", "1"]),
    ([1, 1], ["tower", "--n", "2", "--k", "13"]),       # 2,125,764 cells
    ([1], ["tower", "--n", "2", "--k", str(10 ** 18)]),
])
def test_cli_refuses_dg_past_the_cell_budget(tmp_path, monkeypatch, ranks,
                                             argv):
    path = _complex_file(tmp_path, ranks)
    _no_dg(monkeypatch)
    status, report = run(["dg", argv[0], path] + argv[1:],
                         stream=_io.StringIO())
    assert status == 2
    assert "budget" in report["error"]


@pytest.mark.parametrize("ranks, n, k", [
    ((4, 5, 3), 2, 3), ((3, 3, 2), 3, 3),    # the benchmark's: 216 and 144
    ((1, 1), 2, 12),                         # 708,588 cells
    ((707,), 2, 6),                          # 343,602 cells
])
def test_cli_dg_budget_admits_the_benchmark_towers(tmp_path, monkeypatch,
                                                   ranks, n, k):
    path = _complex_file(tmp_path, ranks)
    _no_dg(monkeypatch)
    for argv in (["reduce", "--n", str(n)],
                 ["tower", "--n", str(n), "--k", str(k)]):
        with pytest.raises(AssertionError, match="was built"):
            run(["dg", argv[0], path] + argv[1:], stream=_io.StringIO())


# SHA-256 of the structured reports, without timings, of `dsx dg reduce`
# and `dsx dg tower` on two fixed three-term complexes, one of them in
# degrees -1..1; the file names are relative, so the reports do not
# depend on the test's directory
DG_COMPLEXES = {
    "a.json": {"degrees": [0, 2], "ranks": [2, 3, 2],
               "boundaries": {"1": [[3, -2, -1], [6, -4, -2]],
                              "2": [[1, 1], [2, 0], [-1, 3]]}},
    "b.json": {"degrees": [-1, 1], "ranks": [1, 2, 1],
               "boundaries": {"0": [[2, 4]], "1": [[2], [-1]]}},
}
DG_REPORT_DIGESTS = {
    "reduce a.json --n 2":
        "007a30afc3ec773e004669c602c1902686cf6a671019f3a7c07dc8592532031c",
    "tower a.json --n 3 --k 3":
        "7eba8e84420d94094ca1bdc0913f7146f368b0ba5821b527d8dad29e6e14856d",
    "reduce b.json --n 3":
        "613e135a8d8df47310f62af029d8690c012f8c48ba35d443c43d0f3ebc51805a",
    "tower b.json --n 2 --k 3":
        "bab4fc4968d880cc7f5e56036fd46f72d63c4f7459c9a748c47a52a6f4087793",
}


def test_cli_dg_reports_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, data in DG_COMPLEXES.items():
        (tmp_path / name).write_text(json.dumps(data))
    digests = {}
    for args in DG_REPORT_DIGESTS:
        out = _io.StringIO()
        status, _ = run(["--format", "structured", "dg"] + args.split(),
                        stream=out)
        assert status == 0
        data = json.loads(out.getvalue())
        data.pop("timings")
        digests[args] = hashlib.sha256(
            json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert digests == DG_REPORT_DIGESTS


def test_cli_reports_byte_identical_modulo_timings(tmp_path):
    path = _write(tmp_path, "d2.json", dsx.standard("simplex", 2))
    reports = []
    for _ in range(2):
        out = _io.StringIO()
        status, report = run(["--format", "structured", "validate", path],
                             stream=out)
        data = json.loads(out.getvalue())
        data.pop("timings")
        reports.append(json.dumps(data, sort_keys=True))
    assert reports[0] == reports[1]


def test_cli_report_file(tmp_path):
    path = _write(tmp_path, "d2.json", dsx.standard("simplex", 2))
    rp = tmp_path / "report.json"
    out = _io.StringIO()
    status, report = run(["--report", str(rp), "validate", path], stream=out)
    assert status == 0
    data = json.loads(rp.read_text())
    assert data["checks"] == report["checks"]
    # serialization round-trips losslessly apart from nothing at all
    assert json.loads(json.dumps(data)) == data


# SHA-256 of the files emitted by `dsx moore --p 3 --power 2 --emit DIR`
# and by `dsx smash` of the emitted M with itself; they pin cell order,
# names and faces of the product, smash and symmetric-power constructions
GOLDEN_DIGESTS = {
    "moore_p3.json":
        "4178147702428d26a2647e9b752e9fa3b56b97541326e357ed10d63282b99529",
    "moore_p3_power2.json":
        "3bff1bf3be9715b8ecd3e9f2733bf42b309d9186bb02a3bd94b87db498fd5905",
    "mm.json":
        "2e778b2d275e23e3699aab776cc5537c7fb21a075771838ee8f12a4b7e672248",
    # the mapping cylinder of C4 -> C2 wrapping twice: an unbased pushout
    "cyl.json":
        "f8d977089373f7d68ad26e0f7af9770d31ee44ad0801dc80d6c770e08375ae34",
    "cyl_cert.json":
        "429363903637d5ff9e89bc608a4811666cbdee668097a22d23c9e060e0e20c88",
    # the certificate a collapse search finds for the 193-cell cone of
    # C4 x C4 over its apex: pins the search's move order
    "cone_cert.json":
        "c8d57d9a1eafcc38a02119f142fdbd11cd5691db2ba840943e8fcb84589289a4",
}


def test_cli_emitted_files_match_golden_digests(tmp_path):
    out = _io.StringIO()
    status, _ = run(["moore", "--p", "3", "--power", "2",
                     "--emit", str(tmp_path)], stream=out)
    assert status == 0
    m = str(tmp_path / "moore_p3.json")
    status, _ = run(["smash", m, m, "-o", str(tmp_path / "mm.json")],
                    stream=out)
    assert status == 0
    C4, C2 = dsx.cycle_graph(4), dsx.cycle_graph(2)
    dio.write_delta(C4, tmp_path / "c4.json")
    dio.write_delta(C2, tmp_path / "c2.json")
    wrap = dsx.DeltaMorphism(C4, C2, {f"{x}{k}": f"{x}{k % 2}"
                                      for x in "vw" for k in range(4)})
    (tmp_path / "wrap.json").write_text(
        json.dumps(dio.morphism_to_dict(wrap, "c4.json", "c2.json")))
    status, _ = run(["cylinder", str(tmp_path / "wrap.json"),
                     "-o", str(tmp_path / "cyl.json"),
                     "--certificate", str(tmp_path / "cyl_cert.json")],
                    stream=out)
    assert status == 0
    dio.write_delta(dsx.geometric_product(C4, C4), tmp_path / "c4c4.json")
    dio.write_delta(dsx.DeltaSet({0: ["apex"]}, {}), tmp_path / "apex.json")
    status, _ = run(["cone", str(tmp_path / "c4c4.json"),
                     "-o", str(tmp_path / "cone.json")], stream=out)
    assert status == 0
    status, _ = run(["certify", str(tmp_path / "apex.json"),
                     str(tmp_path / "cone.json"), "--require-pass",
                     "--certificate", str(tmp_path / "cone_cert.json")],
                    stream=out)
    assert status == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes())
               .hexdigest() for name in GOLDEN_DIGESTS}
    assert digests == GOLDEN_DIGESTS
