"""Tests of the benchmark's own predictors and checkers.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from random import Random

import pytest

import inputs
import model

# non-basepoint cells per dimension of the Moore Delta-set M at p = 3, 5
M3 = {1: 6, 2: 24, 3: 18}
M5 = {1: 10, 2: 40, 3: 30}


def test_chart_counts_at_p3():
    w = model.smash_counts(M3, M3)
    assert sum(w.values()) == 52560
    assert w == {1: 36, 2: 1224, 3: 7884, 4: 18576, 5: 18360, 6: 6480}
    assert sum(model.symmetric_square_counts(M3).values()) == 26304


def test_chart_counts_at_p5():
    assert sum(model.smash_counts(M5, M5).values()) == 146000
    assert sum(model.symmetric_square_counts(M5).values()) == 73040


def test_kunneth_and_universal_coefficients():
    h = model.kunneth_smash(model.moore_homology(3), model.moore_homology(3))
    assert h == {4: (3,), 5: (3,)}
    assert model.field_dims(h, 3, range(8)) == {
        0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 2, 6: 1, 7: 0}
    assert not any(model.field_dims(h, 2, range(8)).values())


def test_parse_group_ignores_ring_label():
    assert model.parse_group("Z^2") == model.parse_group("F_3^2") == (2, ())
    assert model.parse_group("Z + Z/3 + Z/9") == (1, (3, 9))
    assert model.parse_group("0") == (0, ())
    with pytest.raises(ValueError):
        model.parse_group("Z/")


def test_table_problems():
    assert not model.table_problems({"3": "0", "4": "Z/3"}, {4: (0, (3,))}, "t")
    assert model.table_problems({"4": "Z"}, {4: (0, (3,))}, "t")
    assert model.table_problems({"3": "0"}, {4: (0, (3,))}, "t")


def test_rank_recurrence_on_the_point():
    totals = [sum(level) for level in model.tower_ranks([1], 5)]
    assert totals == [2, 6, 18, 54, 162]
    assert model.tower_ranks([1], 2) == [[1, 1], [1, 2, 2, 1]]


def test_random_three_term_is_a_complex():
    import numpy as np
    data = inputs.random_three_term(Random(7), (4, 6, 4))
    d1 = np.array(data["boundaries"]["1"])
    d2 = np.array(data["boundaries"]["2"])
    assert d1.shape == (4, 6) and d2.shape == (6, 4)
    assert not (d1 @ d2).any()
    assert d1.any() and d2.any()


def test_exterior_checker_on_the_mod_n_reduction_of_the_point():
    # t(Z) = (Z --n--> Z) in degrees 1 -> 0, e = the inverse direction
    n = 3
    ranks = {0: 1, 1: 1}
    d = {1: [[n]]}
    assert not model.exterior_problems(0, 1, ranks, d, {0: [[1]]}, n)
    assert model.exterior_problems(0, 1, ranks, d, {0: [[2]]}, n)


def _cone_certificate(K):
    """Expansion certificate {apex} -> cone(K), one move per simplex."""
    faces = {s: tuple(fs) for s, fs in K["faces"].items()}
    simplices = {0: ["apex"]}
    cone_faces = {}
    moves = []
    for d in sorted(int(x) for x in K["simplices"]):
        for s in K["simplices"][str(d)]:
            simplices.setdefault(d, []).append(s)
            simplices.setdefault(d + 1, []).append(f"c{s}")
            fs = faces.get(s, ())
            cf = ("apex", s) if d == 0 else tuple(f"c{f}" for f in fs) + (s,)
            cone_faces[f"c{s}"] = cf
            if d:
                cone_faces[s] = fs
            moves.append({"direction": "expand", "e": f"c{s}", "i": d + 1,
                          "e_faces": list(cf), "f_faces": list(fs)})
    result = inputs.delta_dict(simplices, cone_faces)
    return {"base": inputs.point_file(), "result": result, "moves": moves}


def test_collapse_replay_reaches_the_apex():
    K = inputs.torus(3, 4, twist=1)
    cert = _cone_certificate(K)
    count, left = model.replay_collapses(cert)
    assert count == 6 * 3 * 4
    assert left == {"apex"}


def test_collapse_checker_rejects_a_shared_free_face():
    # two triangles on the edge bc: undoing the expansion of c(bcd)
    # through c(bc) is no free collapse, since c(bc) is a face of c(abc)
    K = inputs.delta_dict(
        {0: ["a", "b", "c", "d"], 1: ["ab", "ac", "bc", "bd", "cd"],
         2: ["abc", "bcd"]},
        {"ab": ("b", "a"), "ac": ("c", "a"), "bc": ("c", "b"),
         "bd": ("d", "b"), "cd": ("d", "c"),
         "abc": ("bc", "ac", "ab"), "bcd": ("cd", "bd", "bc")})
    cert = _cone_certificate(K)
    last = cert["moves"][-1]           # the expansion adding c(bcd)
    assert last["e"] == "cbcd"
    last["i"] = 2                      # claim c(bc) is free in c(bcd)
    last["f_faces"] = list(cert["result"]["faces"]["cbc"])
    with pytest.raises(ValueError, match="not a free face"):
        model.replay_collapses(cert)


def test_torus_counts_do_not_depend_on_the_twist():
    counts = {t: model.counts_of_file(inputs.torus(8, 10, twist=t))
              for t in range(8)}
    assert all(c == {0: 80, 1: 240, 2: 160} for c in counts.values())


BOUNDS = {"end_to_end": [{"name": "verdict_s", "bound": 0.25},
                         {"name": "setup_s", "bound": 0.25}]}


def _set(verdicts, setups, failed=0):
    runs = [{"failed": failed, "attempted": 10,
             "metrics": {"verdict_s": {"value": v}, "setup_s": {"value": s}}}
            for v, s in zip(verdicts, setups)]
    return {"results": {"w": runs}, "reference_s": [0.07, 0.071, 0.069]}


def _steady(first, second):
    import steady
    return steady.summarize(BOUNDS, [first, second], lambda msg: None)


def test_steadiness_gate_accepts_agreeing_sets():
    v = [1.0, 1.02, 0.98, 1.01, 0.99]
    assert _steady(_set(v, v), _set(v, v))


def test_steadiness_gate_is_two_sided():
    v = [1.0, 1.02, 0.98, 1.01, 0.99]
    faster = [0.6 * x for x in v]
    assert not _steady(_set(v, v), _set(faster, v))
    assert not _steady(_set(faster, v), _set(v, v))


def test_steadiness_gate_rejects_failed_operations():
    v = [1.0, 1.02, 0.98, 1.01, 0.99]
    assert not _steady(_set(v, v, failed=1), _set(v, v, failed=1))


def test_steadiness_gate_leaves_setup_spread_free_but_not_its_median():
    v = [1.0, 1.02, 0.98, 1.01, 0.99]
    wide = [0.5, 1.5, 1.0, 0.6, 1.4]
    assert _steady(_set(v, wide), _set(v, wide))
    assert not _steady(_set(v, wide), _set(v, [2 * x for x in wide]))
    assert not _steady(_set(wide, v), _set(wide, v))


def test_combined_workload_routes_labels_to_its_parts():
    import workloads

    class Part(workloads.Workload):
        def __init__(self, name):
            self.name = name

        def commands(self, ctx):
            return [("a", [self.name, ctx])]

        def check(self, label, status, report, ctx):
            return [f"{self.name} {label} {ctx}"]

    both = workloads.Combined("both", "", (Part("x"), Part("y")))
    ctx = {"x": "cx", "y": "cy"}
    assert both.commands(ctx) == [("x/a", ["x", "cx"]), ("y/a", ["y", "cy"])]
    assert both.check("y/a", 0, {}, ctx) == ["y a cy"]
