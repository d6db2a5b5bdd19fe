"""The three workloads: set-up, timed dsx commands and independent checks.

A workload's set-up writes its input files (generated ones are checked
by the program's own loader, so set-up ends with inputs dsx accepts).
Its timed commands form one repetition.  Every command's report is
checked against model.py; a check that fails marks that command failed.
The seeded towers and the seeded cones run as one workload, dg-collapse:
apart, they would take twice the runs per comparison of two commits for
the same run length.
"""

from __future__ import annotations

import json
import os
from random import Random

import inputs
import model

MOORE_P = 5
SMASH_P = 3
SMASH_FIELDS = (3, 2)         # F_p and one F_q with q != p
# (n, levels, ranks of X in degrees 0..2): the seed changes the matrices,
# never the shapes, so every seed does the same dense work.  The top level
# has rank 2 * 3^(levels-1) * |X| (216 and 144); cost grows with its cube.
# At a top rank of 270 the tower slowed by 18% when another process
# streamed memory on the second core, likely because its lists-of-ints
# matrices outgrow a core's L2 cache; at these ranks it did not slow.
DG_COMPLEXES = ((2, 3, (4, 5, 3)), (3, 3, (3, 3, 2)))
# Cone sizes stay well below the ~1,000 collapse moves at which
# find_collapse_sequence exceeds the recursion limit.  The seed changes
# the torus's twist and the random set's triangles, not the sizes.
TORUS = (8, 10)               # 480 cells
PATCH = (40, 480)             # vertices, cells at least


def checks_pass(report, required):
    problems = [f"check {c.get('name')} is {c.get('verdict')}"
                for c in report.get("checks", ()) if c.get("verdict") != "PASS"]
    names = {c.get("name") for c in report.get("checks", ())}
    problems += [f"check {n} missing" for n in required if n not in names]
    return problems


class Workload:
    name = ""
    why = ""
    min_reps = 2
    setup_repeats = 3

    def setup(self, runner, work, seed):
        """Write the inputs into `work`; returns (context, set-up ops)."""
        raise NotImplementedError

    def setup_check(self, ctx):
        """Problems with the set-up's output files (empty if correct)."""
        return []

    def commands(self, ctx):
        """[(label, argv)] of one timed repetition."""
        raise NotImplementedError

    def check(self, label, status, report, ctx):
        """Problems with one timed command's result (empty if correct)."""
        raise NotImplementedError

    def traced_check(self, captures, ctx):
        """Problems found in values captured by the traced run."""
        return []


class MooreP5(Workload):
    name = "moore-p5"
    why = ("the p=5 symmetric square and coherence check: products and "
           "moore do most of the work; 354 MB peak")
    min_reps = 1          # its one command takes 40-55 s

    def setup(self, runner, work, seed):
        out = os.path.join(work, "m")
        op = runner.dsx(["moore", "--p", str(MOORE_P), "--emit", out])
        path = os.path.join(out, f"moore_p{MOORE_P}.json")
        return {"m_path": path}, [op]

    def commands(self, ctx):
        return [("moore", ["moore", "--p", str(MOORE_P), "--power", "2",
                           "--coherence", "2"])]

    def check(self, label, status, report, ctx):
        p = MOORE_P
        problems = [] if status == 0 else [f"exit status {status}"]
        problems += checks_pass(report, ("moore-homology",
                                          "symmetric-power-2", "coherence-2"))
        tables = report.get("tables", {})
        problems += model.table_problems(
            tables.get("moore", {}), {2: (0, (p,))}, "moore")
        # the i-th symmetric power is Z/p in degree 2i for i < p
        problems += model.table_problems(
            tables.get("P2", {}), {4: (0, (p,))}, "P2")
        return problems

    def traced_check(self, captures, ctx):
        with open(ctx["m_path"]) as fh:
            m = model.counts_of_file(json.load(fh))
        want_w = model.smash_counts(m, m)
        want_p = model.symmetric_square_counts(m)
        powers = captures.get("moore.power", [])
        if len(powers) != 1:
            return [f"{len(powers)} symmetric powers built, want 1"]
        got_p, got_w = powers[0]
        problems = []
        if got_w != want_w:
            problems.append(f"M/\\M counts {got_w}, predicted {want_w}")
        if got_p != want_p:
            problems.append(f"P2 counts {got_p}, predicted {want_p}")
        return problems


class SmashHomology(Workload):
    name = "smash-homology"
    why = ("homology of the stored M/\\M at p=3 over Z, F3, F2: loading, "
           "Morse and elimination with no product built")
    # one repetition takes 12-17 s; runs of a single one spread by up to
    # 25%, so every run takes the median of at least two
    min_reps = 2
    setup_repeats = 2     # one set-up builds M/\\M in about 8 s

    def setup(self, runner, work, seed):
        out = os.path.join(work, "m")
        path = os.path.join(out, f"moore_p{SMASH_P}.json")
        smash = os.path.join(work, "mm.json")
        ops = [runner.dsx(["moore", "--p", str(SMASH_P), "--emit", out]),
               runner.dsx(["smash", path, path, "-o", smash])]
        return {"m_path": path, "smash_path": smash}, ops

    def setup_check(self, ctx):
        with open(ctx["m_path"]) as fh:
            m = model.counts_of_file(json.load(fh))
        with open(ctx["smash_path"]) as fh:
            got = model.counts_of_file(json.load(fh))
        want = model.smash_counts(m, m)
        if got != want:
            return [f"M/\\M file counts {got}, predicted {want}"]
        return []

    def commands(self, ctx):
        f = ctx["smash_path"]
        cmds = [("Z", ["homology", f])]
        cmds += [(f"F{q}", ["homology", f, "--coeff", "Fp", "--p", str(q)])
                 for q in SMASH_FIELDS]
        return cmds

    def check(self, label, status, report, ctx):
        problems = [] if status == 0 else [f"exit status {status}"]
        problems += checks_pass(report, ("homology",))
        p = SMASH_P
        h = model.kunneth_smash(model.moore_homology(p),
                                model.moore_homology(p))
        table = report.get("tables", {}).get("homology", {})
        if label == "Z":
            want = model.integral_expectation(h)
        else:
            q = int(label[1:])
            degrees = range(0, 8)
            want = model.field_expectation(model.field_dims(h, q, degrees))
        return problems + model.table_problems(table, want, label)


class DgTower(Workload):
    name = "dg-tower"
    why = ("n-order towers over seeded three-term complexes: dense graded-map "
           "algebra in exact and dgred")

    def setup(self, runner, work, seed):
        rng = Random(f"dg-tower/{seed}")
        ctx = {"complexes": []}
        ops = []
        for idx, (n, levels, ranks) in enumerate(DG_COMPLEXES):
            data = inputs.random_three_term(rng, ranks)
            path = os.path.join(work, f"x{idx}.json")
            inputs.write_json(data, path)
            ctx["complexes"].append({"path": path, "n": n, "levels": levels,
                                     "ranks": list(ranks)})
            ops.append(runner.dsx(["dg", "reduce", path, "--n", str(n)]))
        return ctx, ops

    def commands(self, ctx):
        return [(f"n{c['n']}", ["dg", "tower", c["path"], "--n", str(c["n"]),
                                "--k", str(c["levels"])])
                for c in ctx["complexes"]]

    def check(self, label, status, report, ctx):
        c = next(c for c in ctx["complexes"] if f"n{c['n']}" == label)
        problems = [] if status == 0 else [f"exit status {status}"]
        problems += checks_pass(report, ("tower-invariants",))
        want = model.tower_ranks(c["ranks"], c["levels"])
        got = report.get("tables", {}).get("level_ranks")
        if got != want:
            problems.append(f"level ranks {got}, predicted {want}")
        return problems

    def traced_check(self, captures, ctx):
        problems = []
        towers = captures.get("dgred.tower", [])
        if len(towers) != len(ctx["complexes"]):
            return [f"{len(towers)} towers built, want {len(ctx['complexes'])}"]
        for tower in towers:
            for m, lvl in enumerate(tower.levels, 1):
                C = lvl.complex
                ranks = {k: C.rank(k) for k in range(C.lo - 1, C.hi + 2)}
                d = {k: C.boundary_dense(k) for k in range(C.lo, C.hi + 1)
                     if C.rank(k) and C.rank(k - 1)}
                e = {k: lvl.e.mat(k) for k in range(C.lo, C.hi + 1)
                     if C.rank(k) and C.rank(k + 1)}
                problems += [f"n={tower.n} level {m}: {msg}" for msg in
                             model.exterior_problems(C.lo, C.hi, ranks, d, e,
                                                     tower.n)]
        return problems


class CollapseCertify(Workload):
    name = "collapse-certify"
    why = ("cones of seeded tori and random 2-complexes, certified back to "
           "the apex: collapse search and certificate replay")

    def setup(self, runner, work, seed):
        rng = Random(f"collapse-certify/{seed}")
        apex = os.path.join(work, "apex.json")
        inputs.write_json(inputs.point_file(), apex)
        a, b = TORUS
        shapes = [("torus", inputs.torus(a, b, twist=rng.randrange(a))),
                  ("patch", inputs.random_surface_patch(rng, *PATCH))]
        ctx = {"apex": apex, "shapes": []}
        ops = []
        for label, data in shapes:
            path = os.path.join(work, f"{label}.json")
            inputs.write_json(data, path)
            ctx["shapes"].append({
                "label": label, "path": path,
                "cone": os.path.join(work, f"{label}-cone.json"),
                "cone_cert": os.path.join(work, f"{label}-cone-cert.json"),
                "cert": os.path.join(work, f"{label}-cert.json"),
                "counts": model.counts_of_file(data)})
            ops.append(runner.dsx(["validate", path]))
        return ctx, ops

    def commands(self, ctx):
        cmds = []
        for s in ctx["shapes"]:
            cmds.append((f"cone:{s['label']}",
                         ["cone", s["path"], "-o", s["cone"],
                          "--certificate", s["cone_cert"]]))
            cmds.append((f"certify:{s['label']}",
                         ["certify", ctx["apex"], s["cone"], "--require-pass",
                          "--certificate", s["cert"]]))
        return cmds

    def check(self, label, status, report, ctx):
        kind, shape = label.split(":")
        s = next(x for x in ctx["shapes"] if x["label"] == shape)
        size = sum(s["counts"].values())
        problems = [] if status == 0 else [f"exit status {status}"]
        if kind == "cone":
            problems += checks_pass(report, ("cone-certificate",))
            moves = [c.get("moves") for c in report.get("checks", ())
                     if c.get("name") == "cone-certificate"]
            if moves != [size]:
                problems.append(f"cone moves {moves}, want [{size}]")
            cert_path = s["cone_cert"]
        else:
            # the "certified" check entry carries the verdict name in place
            # of PASS/FAIL, so the exit status and the verdict table decide
            tables = report.get("tables", {})
            if tables.get("verdict") != "CERTIFIED":
                problems.append(f"verdict {tables.get('verdict')!r}")
            if tables.get("moves") != size:
                problems.append(f"{tables.get('moves')} moves, want {size}")
            cert_path = s["cert"]
        if problems:
            return problems
        with open(cert_path) as fh:
            cert = json.load(fh)
        with open(s["cone"]) as fh:
            cone = json.load(fh)
        if (cert["result"]["faces"] != cone["faces"]
                or model.counts_of_file(cert["result"]) != {
                    int(d): len(v) for d, v in cone["simplices"].items()}
                or set(cert["result"]["faces"]) != set(cone["faces"])):
            problems.append("certificate result is not the cone")
        try:
            count, left = model.replay_collapses(cert)
        except ValueError as exc:
            return problems + [f"replay: {exc}"]
        if count != size or left != {"apex"}:
            problems.append(f"replay ends at {sorted(left)[:3]} after "
                            f"{count} collapses, want apex after {size}")
        return problems


class Combined(Workload):
    """Several workloads run as one: each part's set-up, commands and
    checks in turn, with the part's name before its labels."""

    def __init__(self, name, why, parts):
        self.name = name
        self.why = why
        self.parts = {part.name: part for part in parts}
        self.setup_repeats = max(p.setup_repeats for p in parts)
        self.min_reps = max(p.min_reps for p in parts)

    def setup(self, runner, work, seed):
        ctx, ops = {}, []
        for name, part in self.parts.items():
            sub = os.path.join(work, name)
            os.makedirs(sub, exist_ok=True)
            ctx[name], part_ops = part.setup(runner, sub, seed)
            ops += part_ops
        return ctx, ops

    def setup_check(self, ctx):
        return [problem for name, part in self.parts.items()
                for problem in part.setup_check(ctx[name])]

    def commands(self, ctx):
        return [(f"{name}/{label}", argv)
                for name, part in self.parts.items()
                for label, argv in part.commands(ctx[name])]

    def check(self, label, status, report, ctx):
        name, _, label = label.partition("/")
        return self.parts[name].check(label, status, report, ctx[name])

    def traced_check(self, captures, ctx):
        return [problem for name, part in self.parts.items()
                for problem in part.traced_check(captures, ctx[name])]


DG_COLLAPSE = Combined(
    "dg-collapse",
    "seeded three-term complexes and 2-complexes: n-order towers (dense "
    "algebra in exact, dgred), then cones certified back to the apex (moves)",
    (DgTower(), CollapseCertify()))

WORKLOADS = {w.name: w for w in (MooreP5(), SmashHomology(), DG_COLLAPSE)}
