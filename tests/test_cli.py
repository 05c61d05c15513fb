"""CLI tests, run in-process through main(argv)."""

import contextlib
import hashlib
import json
import math
import signal
import sys
import time
from importlib import resources

import pytest

import distortion.cli as cli
import distortion.engine as engine
import distortion.exact as exact
import distortion.exterior as exterior
import distortion.mapclass as mapclass
from distortion.cli import main
from distortion.oracle import ResourceLimitError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_parser_reused_across_calls(capsys):
    # main parses with one parser per process; successive calls with other
    # subcommands and -v counts answer as calls on a freshly built parser
    assert cli.build_parser() is cli.build_parser()
    calls = [
        ["phyp", "--matrix", "[[2,1],[1,1]]", "-vv"],
        ["charpoly", "--matrix", "[[2,1],[1,1]]"],
        ["phyp-search", "--gens", "[[[1,1],[0,1]],[[1,0],[-1,1]]]", "--budget", "2", "--seed", "3", "-v"],
        ["phyp", "--matrix", "[[1,0],[0,1]]", "--expect", "true"],
        ["bfs", "--semidirect", "[[2,1],[1,1]]", "--radius", "2", "-vvv", "--format", "csv"],
        ["phyp", "--matrix", "[[1,0],[0,2]]"],
    ]

    def answer(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, [l for l in out.splitlines() if not l.startswith('  "timestamp": ')], err

    reused = [answer(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(answer(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 1, 0, 2]
    assert json.loads("\n".join(reused[0][1]))["config"]["verbose"] == 2
    assert json.loads("\n".join(reused[1][1]))["config"]["verbose"] == 0


def test_phyp(capsys):
    code, report = run_json(capsys, "phyp", "--matrix", "[[2,1],[1,1]]")
    assert code == 0
    assert report["result"]["partially_hyperbolic"] is True
    assert report["result"]["noncyclotomic_factor"] == "x^2-3x+1"
    assert report["tool"] == "distortion" and report["seed"] == 0
    code, report = run_json(capsys, "phyp", "--matrix", "[[1,0],[0,1]]", "--expect", "true")
    assert code == 1
    assert report["result"]["partially_hyperbolic"] is False


def test_charpoly_and_wedge3(capsys):
    code, report = run_json(capsys, "charpoly", "--matrix", "[[2,1],[1,1]]")
    assert code == 0 and report["result"]["char_poly"] == "x^2-3x+1"
    code, report = run_json(capsys, "wedge3", "--matrix", "[[1,0,0],[0,1,0],[0,0,1]]")
    assert code == 0 and report["result"]["matrix"]["entries"] == [["1"]]


# sha256 of the wedge3 report without its timestamp line, taken from the
# per-minor Python loop; the 6x6 matrix has 41-bit entries, so its minors run
# on Python ints
WEDGE3_PINS = [
    ("[[1,1,0],[0,1,0],[0,0,1]]", "447df4c84433839429580690d7b499d588c5aac9b09830033188402534883eb4"),
    ("[[3,1,-2,-4,3],[9,0,8,-1,3],[9,-9,-2,-9,5],[-5,-5,1,-4,-1]]",
     "46bd7d709bc341baf631b7097be7afdf49150b42ea9cf770216cba32640f8d5a"),
    ("[[-575270070777,799005677714,141162224975,-780756878891,484155505540,990987854913],"
     "[-1019324793194,-665188353168,-464229178496,-313618490778,68949384321,-110304208121],"
     "[-985180028192,812530891439,-846767717311,658424569438,-630733524139,-688622160250],"
     "[-1003273474653,-88498555049,-725756423493,-759629608657,668847578675,132046371370],"
     "[-976934174910,-1035601000169,939116583916,-325035091257,721078054379,-722629889540],"
     "[-662076067764,-132105662836,495799805087,922273021833,-736801575411,-5643029570]]",
     "26ae2f3e619394a8e152695ea90be16c0e19547dbd89f8d40c80650eb5b77907"),
    ("[[-1,0,2,-1,3,1,0,3,-1,3,0,2],[-3,-2,1,-2,-2,-3,-2,-2,0,2,-2,-3],[-2,1,1,1,-2,0,-1,-3,-2,0,2,2],"
     "[-3,3,0,1,2,2,-2,1,3,0,0,-1],[-1,3,-1,-3,-2,1,2,-2,2,-2,1,1],[2,-2,0,2,3,-3,-3,1,2,1,2,-1],"
     "[-2,2,0,-1,-1,-2,-1,3,0,1,-2,3],[-3,3,2,-1,1,1,0,-1,0,3,0,2],[3,-2,-3,1,0,1,0,-2,0,-2,0,-1],"
     "[-3,-2,0,0,1,3,0,-3,1,3,2,3],[2,1,-3,3,3,2,-2,0,3,0,-1,-1],[1,-2,0,3,-3,-2,-2,3,1,1,0,-2]]",
     "6b4bf3d1d5c26bce9a195ff6a99512652a46de86b95eed95bbf81dfb37976367"),
]


@pytest.mark.parametrize("matrix, report_sha", WEDGE3_PINS, ids=["3x3", "4x5", "6x6-big", "12x12"])
def test_wedge3_bytes_pinned(capsys, matrix, report_sha):
    code, out = run(capsys, "wedge3", "--matrix", matrix)
    assert code == 0
    report = "".join(l for l in out.splitlines(True) if not l.startswith('  "timestamp": '))
    assert hashlib.sha256(report.encode()).hexdigest() == report_sha


def test_wedge3_size_guard(tmp_path, capsys):
    # C(200,3)^2 = 1.7e12 minors: refused before any is computed
    path = tmp_path / "id200.json"
    path.write_text(json.dumps([[int(i == j) for j in range(200)] for i in range(200)]))
    start = time.perf_counter()
    assert main(["wedge3", "--matrix", str(path)]) == 3
    assert time.perf_counter() - start < 5
    assert "resource guard" in capsys.readouterr().err
    # the largest square input the guard lets through: C(30,3)^2 = 16,483,600 minors
    assert 2 * math.comb(30, 3) ** 2 <= engine.WITNESS_MAX_BYTES < 2 * math.comb(31, 3) ** 2


def test_target(capsys):
    code, report = run_json(capsys, "target", "--g", "3", "--variant", "closed")
    assert code == 0
    assert report["result"]["free_rank"] == 14
    assert report["result"]["torsion"] == []


def test_target_transform_guard(monkeypatch, capsys):
    # at g = 40 the transforms of the rank-C(80,3) quotient would hold
    # 6.75e9 entries each: refused before H^W is formed
    def fail(*args):
        raise AssertionError("the target's relations were formed")

    monkeypatch.setattr(exterior, "_wedge", fail)
    assert main(["target", "--g", "40"]) == 3
    assert "resource guard" in capsys.readouterr().err
    # the cap admits the absolute targets up to genus 12
    assert math.comb(24, 3) ** 2 <= exterior.TARGET_MAX_ENTRIES < math.comb(26, 3) ** 2
    # the size is checked on 2g - (columns of W) before H/W is built, whose
    # work grows with g^2
    monkeypatch.setattr(exterior, "quotient_module", fail)
    start = time.perf_counter()
    assert main(["target", "--g", "2000"]) == 3
    assert main(["target", "--g", "40", "--w", json.dumps([[int(i == j) for j in range(3)] for i in range(80)])]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "C(4000,3)^2" in err and "C(77,3)^2" in err


@contextlib.contextmanager
def alarm(seconds):
    """AssertionError in the body once `seconds` of wall time have passed
    (not TimeoutError, which main would report as an OSError, exit 2)."""
    def expire(signum, frame):
        raise AssertionError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# the dense 6 x 5 of test_snf_dense_input_finishes, a W of genus 3 with torsion
# in H/W, on which Euclid by swaps did not finish
DENSE_W = "[[-21,13,21,-4,22],[2,28,-9,-29,-3],[-7,6,-27,27,18],[17,-8,-27,0,-7],[7,19,-30,25,-5],[-15,-23,5,-17,-15]]"


def test_dense_w_finishes(capsys):
    word = '{"genus":3,"letters":[{"class":[1,0,0,0,0,0],"exp":1}]}'
    for kind in ("modw", "tw"):
        with alarm(2.0):
            assert main(["membership", "--kind", kind, "--word", word, "--w", DENSE_W, "--expect", "true"]) == 1
        assert '"member": false' in capsys.readouterr().out
    with alarm(2.0):
        assert main(["target", "--g", "3", "--w", DENSE_W]) == 2
    assert "not a primitive sublattice" in capsys.readouterr().err


def test_membership(tmp_path, capsys):
    word = {"genus": 2, "letters": [{"label": "sep", "class": [0, 0, 0, 0], "exp": 1}]}
    path = tmp_path / "sep.json"
    path.write_text(json.dumps(word))
    code, report = run_json(capsys, "membership", "--kind", "torelli", "--word", str(path))
    assert code == 0 and report["result"]["member"] is True
    assert report["result"]["induced"]["entries"][0] == ["1", "0", "0", "0"]

    twist = {"genus": 2, "letters": [{"label": "a1", "class": [1, 0, 0, 0], "exp": 1}]}
    path2 = tmp_path / "twist.json"
    path2.write_text(json.dumps(twist))
    code, report = run_json(capsys, "membership", "--kind", "torelli", "--word", str(path2),
                            "--expect", "true")
    assert code == 1 and report["result"]["member"] is False
    code, _ = run_json(capsys, "membership", "--kind", "level", "--word", str(path2), "--m", "2",
                       "--expect", "false")
    assert code == 0


def test_membership_checks_each_letter(capsys):
    # a word's classes are checked where they are read: each of dimension
    # 2g and zero or primitive, a non-primitive one named by its label or
    # x<i>; both are input errors
    for letters, err in (
        ([{"label": "a1", "class": [1, 0, 0, 0], "exp": 1}, {"label": "bad", "class": [2, 0, 0, 0], "exp": 1}],
         "curve class 'bad' is not primitive"),
        ([{"class": [0, 0, 0, 0], "exp": 1}, {"class": [0, 3, 0, -6], "exp": 1}], "curve class 'x1' is not primitive"),
        ([{"class": [1, 0, 0, 0], "exp": 1}, {"class": [1, 0, 0], "exp": 1}],
         "class dimension does not match the genus"),
    ):
        assert main(["membership", "--kind", "torelli", "--word", json.dumps({"genus": 2, "letters": letters})]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {err}\n")
    # a genus below 1 is refused before any letter is read, with or without
    # letters: an empty class at genus 0 has the dimension 2g
    for genus, letters in ((0, []), (0, [{"class": [], "exp": 1}]), ("0", [{"class": [], "exp": 1}]),
                           (-1, [{"class": [1, 0], "exp": 1}]), (0, [{"class": 5, "exp": 1}])):
        assert main(["membership", "--kind", "torelli", "--word", json.dumps({"genus": genus, "letters": letters})]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: genus must be >= 1\n")


MEMBERSHIP_G6 = {"genus": 6, "letters": [
    {"label": "a1", "class": [1] + [0] * 11, "exp": 3},
    {"label": "b2", "class": [0] * 7 + [1] + [0] * 4, "exp": -2},
    {"label": "c", "class": [1, -1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0], "exp": 5}]}


def test_membership_size_guard(monkeypatch, capsys):
    # a genus-6 report is unchanged by the guard, and holds at least the 15
    # bytes per induced entry that the guard counts
    word = json.dumps(MEMBERSHIP_G6, separators=(",", ":"))
    code, out = run(capsys, "membership", "--kind", "torelli", "--word", word)
    assert code == 0 and len(out) >= 15 * 12 ** 2
    report = "".join(l for l in out.splitlines(True) if not l.startswith('  "timestamp": '))
    assert hashlib.sha256(report.encode()).hexdigest() == \
        "48450ab51c994ee74219ccfc60b40543c2a4b63a89b7f53f6cd9ab2274afd6c3"
    # a 2e5 x 2e5 induced matrix: refused before anything is built
    monkeypatch.setattr(cli, "evaluate", None)
    assert main(["membership", "--kind", "torelli", "--word", '{"genus": 100000, "letters": []}']) == 3
    assert "resource guard" in capsys.readouterr().err
    # the largest genus the guard lets through is 747
    assert 15 * (2 * 747) ** 2 <= engine.WITNESS_MAX_BYTES < 15 * (2 * 748) ** 2


def apply_word(word, x):
    """M x for M = evaluate(word), one twist at a time, the last letter
    first: x -> x + e <x, v> v."""
    g = word["genus"]
    for letter in reversed(word["letters"]):
        v, e = letter["class"], letter["exp"]
        pairing = sum(x[i] * v[g + i] - x[g + i] * v[i] for i in range(g))
        x = [a + e * pairing * b for a, b in zip(x, v)]
    return x


def test_membership_large_genus(monkeypatch, capsys):
    # a genus-300 word of four letters; the 600 x 600 induced matrix is built
    # by column updates, so no matrix product may run
    g, n = 300, 600

    def cls(**entries):
        return [entries.get(f"e{i}", 0) for i in range(n)]

    word = {"genus": g, "letters": [
        {"class": cls(e0=1), "exp": 3},
        {"class": cls(e1=2, e305=-3, e599=1), "exp": -2},
        {"class": cls(e599=1), "exp": 5},
        {"class": cls(e0=1, e300=1, e7=1), "exp": 1}]}

    def fail(*args):
        raise AssertionError("a matrix product ran")

    for module in (exact, engine, exterior):
        monkeypatch.setattr(module, "mat_mul", fail)
    monkeypatch.setattr(exact, "mat_pow", fail)
    code, report = run_json(capsys, "membership", "--kind", "torelli", "--word", json.dumps(word))
    assert code == 0 and report["result"]["member"] is False
    entries = report["result"]["induced"]["entries"]
    assert len(entries) == n and all(len(row) == n for row in entries)
    for j in (0, 1, 2, 7, 299, 300, 301, 305, 307, 599):
        column = [int(row[j]) for row in entries]
        assert column == apply_word(word, [int(i == j) for i in range(n)])


# an x of 3,972 digits: readable, but its square passes the 4,300-digit
# int-to-str limit; y of 3,000 digits, whose square does too
BIG_X = 10 ** 3971 + 7
BIG_Y = 10 ** 2999 + 3


def diagonal(x, k):
    return json.dumps([[str(x) if i == j else "0" for j in range(k)] for i in range(k)])


def alternating_word(length, e):
    return json.dumps({"genus": 1, "letters": [{"class": [1, 0] if k % 2 == 0 else [0, 1], "exp": e}
                                               for k in range(length)]})


def shear_pair(y):
    """Generators [[1, y], [0, 1]] and [[1, 0], [y, 1]]: each is unipotent, and
    their product [[1 + y^2, y], [y, 1]], the first hit of a search, has
    trace 2 + y^2."""
    return json.dumps([[[1, str(y)], [0, 1]], [[1, 0], [str(y), 1]]])


@pytest.mark.parametrize("over, under", [
    # 400 letters of exponent 2^62: entries of about 24,800 bits
    (["membership", "--kind", "torelli", "--word", alternating_word(400, 2 ** 62)],
     ["membership", "--kind", "torelli", "--word", alternating_word(200, 2 ** 62)]),
    (["charpoly", "--matrix", diagonal(BIG_X, 2)], ["charpoly", "--matrix", diagonal(BIG_Y // 10 ** 900, 2)]),
    (["wedge3", "--matrix", diagonal(BIG_X, 3)], ["wedge3", "--matrix", diagonal(10 ** 1400, 3)]),
    # det 1, and the coefficient of x is -y (y - 1)
    (["phyp", "--matrix", json.dumps([[0, str(BIG_Y), -1], [str(BIG_Y - 1), 0, 1], [1, 1, 0]])],
     ["phyp", "--matrix", json.dumps([[0, str(10 ** 2000), -1], [str(10 ** 2000 - 1), 0, 1], [1, 1, 0]])]),
    # the hit's matrix and noncyclotomic factor hold 1 + y^2
    (["phyp-search", "--budget", "2", "--gens", shear_pair(BIG_Y)],
     ["phyp-search", "--budget", "2", "--gens", shear_pair(10 ** 1400)]),
], ids=["membership", "charpoly", "wedge3", "phyp", "phyp-search"])
def test_unprintable_integer_guard(capsys, over, under):
    # a result integer past the int-to-str limit exits 3 before any of the
    # report is formatted; one that fits prints
    assert main(over) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("resource guard: an integer of ")
    assert out.err.endswith(f" bits exceeds {engine.max_printable_bits():.0f} bits, the most that is printed\n")
    code, report = run_json(capsys, *under)
    assert code == 0 and capsys.readouterr().err == ""
    assert len(json.dumps(report["result"])) > 3000


def test_witness_and_csv(tmp_path, capsys):
    xfile = tmp_path / "x.json"
    xfile.write_text(json.dumps({"word": [["T_a1", 1], ["T_b1", -1]]}))
    code, report = run_json(capsys, "witness", "--preset", "pointpush", "--g", "2",
                            "--x", str(xfile), "--y", "push_a1", "--n", "5")
    assert code == 0
    rows = report["result"]["rows"]
    assert [r["intrinsic"] for r in rows] == ["2", "5", "13", "34", "89"]
    assert [r["extrinsic"] for r in rows] == [5, 9, 13, 17, 21]

    code, out = run(capsys, "witness", "--preset", "pointpush", "--g", "2",
                    "--x", str(xfile), "--y", "push_a1", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,extrinsic,intrinsic"
    assert lines[1] == "1,5,2"


def test_witness_reads_the_table_before_the_target(monkeypatch, capsys):
    # the work estimate of the wedge^3 formula for x = T_a1, from
    # chi(T_a1) = (x - 1)^2g, passes the cap from g = 11 (rank 1,518): exit 3
    # after the preset is built, before rho(x) is formed
    def fail(*args):
        raise AssertionError("the target or the generators were built")

    induced = []
    monkeypatch.setattr(engine, "induced_action", lambda *args: induced.append(args))
    argv = ["witness", "--preset", "torelli", "--g", "12", "--x", '[["T_a1",1]]', "--y", "T_a1"]
    for g in ("11", "12"):
        assert main(argv[:4] + [g] + argv[5:]) == 3
        assert "the characteristic polynomial of a rank-" in capsys.readouterr().err
    assert induced == []
    # a malformed --psi-table is refused before any target is built
    monkeypatch.setattr(engine, "relative_target", fail)
    assert main(argv + ["--psi-table", "[1]"]) == 2
    assert "a value table is" in capsys.readouterr().err
    # past the target cap, neither the target nor the generators (481 twists
    # for torelli at g = 120) are built
    monkeypatch.undo()
    monkeypatch.setattr(engine, "_twists", fail)
    monkeypatch.setattr(engine, "_elementary", fail)
    start = time.perf_counter()
    for other in (["--preset", "torelli", "--g", "120"], ["--preset", "lagrangian", "--g", "60"],
                  ["--preset", "pullback", "--g", "60", "--h", "3"]):
        assert main(argv[:1] + other + argv[5:]) == 3
        assert "resource guard" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


def test_witness_checks_y_symbols(capsys):
    # a y outside the closed-form list is valued from its name after a shape
    # check; a bad one exits 2 with a message that names it
    base = ["witness", "--x", '[["T_a3",1],["T_b3",-1],["T_a4",1],["T_b4",-1]]', "--n", "4", "--y"]
    torelli = base[:1] + ["--preset", "torelli", "--g", "4"] + base[1:]
    pullback = base[:1] + ["--preset", "pullback", "--g", "5", "--h", "2"] + base[1:]
    lagrangian = ["witness", "--preset", "lagrangian", "--g", "4", "--x", '[["E12",1],["E21",1]]', "--n", "4", "--y"]
    for argv, sym, msg in [
        (torelli, "bp:a1,b1", "is not bp:x,y,z"),
        (torelli, "bp:a1,b1,a5", "'a5' is not a label of this preset's handles"),
        (torelli, "bp:a1,b1+b1,a2", "repeats 'b1'"),
        (torelli, "bp:a1,a2,a3", "has <x, y> = 0, not 1"),
        (torelli, "bp:a1,b1,a1+a2", "z does not pair to 0 with x and y"),
        (pullback, "bp:a1,b1,a3", "'a1' is not a label of this preset's handles"),
        (lagrangian, "w:b1^b2^b5", "unknown subgroup symbol"),
        (lagrangian, "w:b2^b1^b3", "unknown subgroup symbol"),
    ]:
        assert main(argv + [sym]) == 2, sym
        out = capsys.readouterr()
        assert out.out == "" and repr(sym) in out.err and msg in out.err, (sym, out.err)
    # the fixture tables' symbols, in the list or not, are accepted
    for argv, sym in [(torelli, "bp:a1+b1,b1+b2,b3"), (torelli, "bp:a3,b1+b3,b2"), (pullback, "bp:a3,b3,a4"),
                      (pullback, "bp:a3+b3,b3+b4,b5"), (lagrangian, "w:b1^b3^b4")]:
        code, report = run_json(capsys, *argv, sym)
        assert code == 0 and report["result"]["bound_constant"] == 1, sym


@pytest.mark.parametrize("preset, options, option", [
    (["pullback", "--g", "5", "--h", "2"], ["--variant", "boundary"], "variant"),
    (["torelli", "--g", "3"], ["--h", "2"], "h"),
    (["lagrangian", "--g", "4"], ["--variant", "closed"], "variant"),
    (["torelli", "--g", "3"], ["--points", "2"], "points"),
    (["pointpush", "--g", "2"], ["--points", "3"], "points"),
    (["pointpush", "--g", "2"], ["--h", "7"], "h"),
    (["surface_braid", "--g", "2", "--points", "2"], ["--variant", "boundary"], "variant"),
    (["surface_braid", "--g", "2"], ["--psi-table", '{"module_rank": 4, "gens": []}'], "psi_table"),
], ids=["pullback-variant", "torelli-h", "lagrangian-variant", "torelli-points", "pointpush-points",
        "pointpush-h", "surface-braid-variant", "surface-braid-psi-table"])
def test_witness_rejects_options_its_preset_ignores(capsys, preset, options, option):
    # an option the preset would not read exits 2 naming it, rather than
    # being echoed in a report computed without it
    x = '[["T_a1",1],["T_b1",-1]]' if preset[0] != "lagrangian" else '[["E12",1],["E21",1]]'
    assert main(["witness", "--preset", *preset, *options, "--x", x, "--y", "push_a1", "--n", "4"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and f"the {preset[0]} preset takes no {option}" in out.err


def test_witness_print_limit(capsys):
    # ||M^n v|| grows by about 1.39 bits a step: it passes the 4,300-digit
    # int-to-str limit at n = 10,285, where the guard stops the rows
    argv = ["witness", "--preset", "pointpush", "--g", "2",
            "--x", '[["T_a1",1],["T_b1",-1]]', "--y", "push_a1", "--n"]
    start = time.perf_counter()
    assert main(argv + ["11000"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "resource guard" in capsys.readouterr().err
    code, report = run_json(capsys, *argv, "10000")
    assert code == 0
    assert len(report["result"]["rows"]) == 10000
    assert 4100 < len(report["result"]["rows"][-1]["intrinsic"]) < 4300


def test_witness_report_size_guard(monkeypatch, capsys):
    argv = ["witness", "--preset", "pointpush", "--g", "2",
            "--x", '[["T_a1",1],["T_b1",-1]]', "--y", "push_a1", "--n"]
    # a million rows of even one-digit numbers pass the report cap: refused
    # before any row is computed
    start = time.perf_counter()
    assert main(argv + ["1000000"]) == 3
    assert time.perf_counter() - start < 0.5
    out = capsys.readouterr()
    assert out.out == "" and "resource guard" in out.err and "1000000 rows" in out.err
    # 200 rows clear the up-front estimate of a 20,000-byte cap, and the
    # running size passes it partway
    monkeypatch.setattr(engine, "WITNESS_MAX_BYTES", 20_000)
    assert main(argv + ["200"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "the report passes 20000 bytes at n = " in out.err
    assert 1 < int(out.err.split("at n = ")[1].split(",")[0]) < 200
    code, report = run_json(capsys, *argv, "100")
    assert code == 0 and len(report["result"]["rows"]) == 100


def test_torelli_witness_never_calls_wedge3_map(monkeypatch, capsys):
    # the values, rho(x) and the relations of a preset take the sparse wedge;
    # the dense minors serve the wedge3 command alone
    def fail(*args):
        raise AssertionError("wedge3_map ran")

    monkeypatch.setattr(exterior, "wedge3_map", fail)
    code, report = run_json(capsys, "witness", "--preset", "torelli", "--g", "4", "--x",
                            '[["T_a1",1],["T_b1",-1],["T_a2",1],["T_b2",-1]]', "--y", "bp:a1+b1,b1+b2,b3", "--n", "20")
    assert code == 0 and report["result"]["rows"]


LINKED = '[["T_a1",1],["T_b1",-1]]'

# sha256 of each witness report without its timestamp line, taken when every
# row was one IntMatrix.apply of rho(x) on the previous row; the three target
# presets' pins were re-taken when their provenance line, and nothing else,
# changed to the closed-form values'
WITNESS_PINS = [
    (["--preset", "pointpush", "--g", "2", "--x", LINKED, "--y", "push_a1", "--n", "60"],
     "53c0782cb6be2a798e76001d88708be8051b8333e0514ce625a95bd0c2900cfe"),
    (["--preset", "torelli", "--g", "3", "--x", LINKED, "--y", "bp:a1+b1,b1+b2,b3", "--n", "300"],
     "8827837d9e0dffb0b4ce989993b50adefa145013ebd3132b8836fb596aca4521"),
    (["--preset", "torelli", "--g", "3", "--variant", "boundary", "--x", LINKED, "--y", "bp:a1,a2+b1,a3",
      "--n", "60"],
     "dad620f0e880fd093f63e5dc22eb4c2b9176df61d582b8d04f440d38a9d278ab"),
    (["--preset", "pullback", "--g", "5", "--h", "2", "--x", '[["T_a3",1],["T_b3",-1],["T_a4",1],["T_b4",-1]]',
      "--y", "bp:a3,a4+b3,a5", "--n", "60"],
     "c8568d96131af018de34f4689b2ccb82a6742ce7abd405cc0ae3f990d149ce5e"),
    (["--preset", "surface_braid", "--g", "2", "--points", "2", "--x", LINKED, "--y", "push2_a1", "--n", "60"],
     "41dcc9f7b06d01ba07aae6f076c767c99e96553deefce3e48a0a43627f7987e0"),
]


@pytest.mark.parametrize("argv, report_sha", WITNESS_PINS,
                         ids=["pointpush-g2", "torelli-g3-n300", "torelli-g3-boundary", "pullback-g5-h2",
                              "surface-braid-g2"])
def test_witness_bytes_pinned(capsys, argv, report_sha):
    code, out = run(capsys, "witness", *argv)
    assert code == 0
    report = "".join(l for l in out.splitlines(True) if not l.startswith('  "timestamp": '))
    assert hashlib.sha256(report.encode()).hexdigest() == report_sha


def test_word_exponent_guard(capsys):
    # both word readers refuse |e| >= 2^63 before any product, and take 2^63 - 1
    word = {"genus": 3, "letters": [{"class": [1, 0, 0, 0, 0, 0], "exp": 1},
                                    {"class": [0, 0, 0, 1, 0, 0], "exp": -1}]}
    witness = ["witness", "--preset", "torelli", "--g", "3", "--y", "bp:a1+b1,b1+b2,b3", "--n", "5", "--x"]
    top = 2 ** 63 - 1
    assert mapclass.WORD_EXPONENT_LIMIT == top + 1
    for e in ("1" + "0" * 1200, str(top + 1), -(top + 1)):
        word["letters"][0]["exp"] = e
        start = time.perf_counter()
        assert main(["membership", "--kind", "torelli", "--word", json.dumps(word)]) == 3
        assert main(witness + [json.dumps([["T_a1", e], ["T_b1", -1]])]) == 3
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr()
        assert out.out == "" and out.err.count("resource guard: a word exponent of ") == 2
    for e in (str(top), -top):
        word["letters"][0]["exp"] = e
        assert main(["membership", "--kind", "torelli", "--word", json.dumps(word)]) == 0
        assert main(witness + [json.dumps([["T_a1", e], ["T_b1", -1]])]) == 0
    assert capsys.readouterr().err == ""


def test_word_growth_guard(monkeypatch, capsys):
    # 80,000 letters of exponent 2^62 let the entries reach 4,960,000 bits
    # by evaluate's bound: it exits 3 before its first letter, where the
    # column updates would take time quadratic in the word's length
    times = []

    def timed(word, _evaluate=mapclass.evaluate):
        start = time.perf_counter()
        try:
            return _evaluate(word)
        finally:
            times.append(time.perf_counter() - start)

    monkeypatch.setattr(cli, "evaluate", timed)
    assert main(["membership", "--kind", "torelli", "--word", alternating_word(80_000, 2 ** 62)]) == 3
    assert capsys.readouterr().err == "resource guard: a word's entries may reach 4960000 bits, over the cap 1048576\n"
    assert times[0] < 0.5


def witness_word(length, e):
    """--x as T_a1^e T_b1^e repeated to length letters."""
    return json.dumps([["T_a1" if k % 2 == 0 else "T_b1", e] for k in range(length)])


def test_witness_word_guard(tmp_path, monkeypatch, capsys):
    # a witness word is multiplied by evaluate's column updates, as a
    # membership word is: 200 letters of 2^62 form their 2g x 2g product with
    # no dense product or power, and exit 3 on the printed norm (exterior's
    # mat_mul forms rho of that product, and is left alone)
    argv = ["witness", "--preset", "torelli", "--g", "3", "--y", "bp:a1+b1,b1+b2,b3", "--n", "5", "--x"]

    def fail(*args):
        raise AssertionError("a dense product or power formed the 2g x 2g matrix")

    with monkeypatch.context() as patch:
        for module in (exact, engine):
            patch.setattr(module, "mat_mul", fail)
        patch.setattr(exact, "mat_pow", fail)
        assert main(argv + [witness_word(200, 2 ** 62)]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err == (f"resource guard: the norm at n = 2 exceeds {engine.max_printable_bits():.0f} "
                                         "bits, the most that is printed\n")
    # a word whose bound passes 2^20 bits exits 3 with evaluate's message,
    # before rho is applied
    path = tmp_path / "x.json"
    path.write_text(witness_word(20_000, 2 ** 62))
    monkeypatch.setattr(engine, "induced_action", lambda target, M: pytest.fail("induced_action ran"))
    start = time.perf_counter()
    assert main(argv + [str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr()
    assert out.out == "" and out.err == "resource guard: a word's entries may reach 1240000 bits, over the cap 1048576\n"


def test_braid_preset_size_guard(monkeypatch, capsys):
    # the size in entries, one 2g-vector for each of the 4g + 1 twist
    # letters and (2g)^2 values in H for each point: past the cap the command
    # exits 3 before any of them is built
    argv = ["witness", "--x", LINKED, "--n", "3", "--preset"]

    def size(g, points):
        return (4 * g + 1) * 2 * g + (2 * g) ** 2 * points

    assert size(2, 262_141) <= exterior.TARGET_MAX_ENTRIES < size(2, 262_142)
    assert size(591, 1) <= exterior.TARGET_MAX_ENTRIES < size(592, 1)
    with monkeypatch.context() as patch:
        patch.setattr(engine, "SymplecticContext", lambda g: pytest.fail("the preset was built"))
        start = time.perf_counter()
        for more in (["surface_braid", "--g", "2", "--points", "262142", "--y", "push1_a1"],
                     ["pointpush", "--g", "592", "--y", "push_a1"]):
            assert main(argv + more) == 3
            err = capsys.readouterr().err
            assert err.startswith(f"resource guard: the {more[0]} preset would hold ") and "over the cap" in err
        assert time.perf_counter() - start < 1.0
    # within the cap: pointpush at g = 64 certifies (past the cap when each
    # twist symbol was counted as a 2g x 2g matrix), and so does
    # surface_braid at 511 and 3,000 points, whose rho(x) is 4 x 4
    assert main(argv + ["pointpush", "--g", "64", "--y", "push_a1"]) == 0
    for points in ("511", "3000"):
        assert main(argv + ["surface_braid", "--g", "2", "--points", points, "--y", "push1_a1"]) == 0
    assert capsys.readouterr().err == ""
    # the last point's pushes certify as the first's do
    start = time.perf_counter()
    code, report = run_json(capsys, *argv, "surface_braid", "--g", "2", "--points", "100", "--y", "push100_a1")
    assert time.perf_counter() - start < 0.1
    assert code == 0 and [r["intrinsic"] for r in report["result"]["rows"]] == ["2", "5", "13"]


def test_witness_char_poly_guard(monkeypatch, capsys):
    # the guard runs on the witness's own x: with the cap one step below the
    # work estimate of the wedge^3 formula from chi(M), M the 6 x 6 matrix of
    # x, the witness exits 3 before the first Newton step and before rho(x)
    # is formed, and at the estimate it runs to its report
    argv = ["witness", "--preset", "torelli", "--g", "3", "--x", LINKED, "--y", "bp:a1+b1,b1+b2,b3", "--n", "3"]
    work = exterior._wedge3_work(exact.char_poly(engine.preset("torelli", 3).matrix_of_word(json.loads(LINKED))))
    monkeypatch.setattr(exact, "CHAR_POLY_MAX_WORK", work - 1)
    with monkeypatch.context() as patch:
        patch.setattr(exterior, "_power_sums", lambda *args: pytest.fail("a Newton step ran"))
        patch.setattr(engine, "induced_action", lambda *args: pytest.fail("rho(x) was formed"))
        assert main(argv) == 3
    assert "resource guard: the characteristic polynomial of a rank-14 matrix" in capsys.readouterr().err
    monkeypatch.setattr(exact, "CHAR_POLY_MAX_WORK", work)
    assert main(argv) == 0
    monkeypatch.undo()
    # on H (the braid presets) chi is char_poly(M) itself: a rank-100 matrix
    # of 4001-digit entries trips the estimate of that matrix, before its
    # first prime
    monkeypatch.setattr(exact, "_char_poly_mod", lambda H, p: pytest.fail("_char_poly_mod ran"))
    big = exact.IntMatrix.from_rows([[10 ** 4000 if i == j else 0 for j in range(100)] for i in range(100)])
    with pytest.raises(ResourceLimitError, match="rank-100 matrix"):
        engine.preset("pointpush", 50).rho_char_poly(big)


def test_reports_are_reproducible(tmp_path, capsys):
    argv = ["phyp", "--matrix", "[[2,1],[1,1]]"]
    _, first = run_json(capsys, *argv)
    _, second = run_json(capsys, *argv)
    first.pop("timestamp")
    second.pop("timestamp")
    assert first == second


def test_phyp_search(tmp_path, capsys):
    gens = [[[1, -1], [0, 1]], [[1, 0], [1, 1]]]
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(gens))
    code, report = run_json(capsys, "phyp-search", "--gens", str(path), "--budget", "3", "--seed", "5")
    assert code == 0
    assert report["result"]["found"] is True
    assert len(report["result"]["word"]) == 2

    ident = tmp_path / "ident.json"
    ident.write_text(json.dumps([[[1, 0], [0, 1]]]))
    code, report = run_json(capsys, "phyp-search", "--gens", str(ident), "--budget", "2")
    assert code == 1 and report["result"]["found"] is False


def test_bfs(tmp_path, capsys):
    out = tmp_path / "ball.jsonl"
    code, report = run_json(capsys, "bfs", "--semidirect", "[[2,1],[1,1]]",
                            "--radius", "3", "--out", str(out))
    assert code == 0
    assert report["result"]["states"] == sum(report["result"]["layer_sizes"])
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == report["result"]["states"]
    assert {"v": [0, 0], "t": 0, "length": 0} in lines
    # sorted and resumable: deterministic order
    assert lines == sorted(lines, key=lambda e: (e["v"], e["t"]))


def test_bfs_resource_guard(tmp_path, capsys):
    code = main(["bfs", "--semidirect", "[[2,1],[1,1]]", "--radius", "9",
                 "--state-cap", "10", "--out", str(tmp_path / "b.jsonl")])
    assert code == 3


def test_bfs_large_radius_trips_before_the_powers(capsys):
    # the 2 r^2 + 2 r + 1 words t^s e_1^a, |s| + |a| <= r, are distinct
    # states, so a radius-2000 ball is over a cap of 10 before any of the
    # 4001 powers A^s is formed
    start = time.perf_counter()
    assert main(["bfs", "--semidirect", "[[2,1],[1,1]]", "--radius", "2000", "--state-cap", "10"]) == 3
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == \
        "resource guard: ball of radius 2000 holds at least 8004001 states, over the cap 10\n"


FIB40 = "[[37889062373143906,23416728348467685],[23416728348467685,14472334024676221]]"

# sha256 of the ball file and of the report without its timestamp line, taken
# from a dict-of-tuples BFS that wrote one json.dumps line per state; the key
# packing of FIB^40 at radius 3 passes 2^62, so its ball runs on Python ints
BFS_PINS = [
    ("[[2,1],[1,1]]", 9, "json", "8dc51192599456e206227ce39698c47376a79c05407398d6a61c37fd0f9aae04",
     "44b4f7abf7d0e2a8543a718cdb155ea05d0a3b9ab604f390ae1664532dad5ba6"),
    ("[[2,1],[1,1]]", 9, "csv", "8dc51192599456e206227ce39698c47376a79c05407398d6a61c37fd0f9aae04",
     "71bb43662e9d15cdb12fdeff55360538b6adf4e3247427cd57c3e16b8ef899da"),
    ("[[0,1,0],[0,0,1],[1,1,0]]", 6, "json", "744bc1d7912cc66ab305d55b38aaec19a9c0d45aa3b62e2c481767008ecc6c57",
     "1f13c3b8a3149ac12c717370a9114b30faa053f3a5c8dd48bc5cd83302eb064c"),
    ("[[0,1,0],[0,0,1],[1,1,0]]", 6, "csv", "744bc1d7912cc66ab305d55b38aaec19a9c0d45aa3b62e2c481767008ecc6c57",
     "c05f81da23c38bab48f25aa130ba2f2bd6a050cf6e44630175dec868494545ae"),
    ("[[-1]]", 5, "json", "5c614ede62681476d1a5f4a098b41fa4b707c3fe7ebaa7c448c10473e85f336a",
     "5afbca828e1befa292010306d73b4b7731ee9227d23fa4be011e37d23d3a50a2"),
    ("[[-1]]", 5, "csv", "5c614ede62681476d1a5f4a098b41fa4b707c3fe7ebaa7c448c10473e85f336a",
     "f770daf2ce55d6e207f62b04ed40e321b5168b83785b634db7f662548807a578"),
    (FIB40, 3, "json", "f9a7387dddad462da7c2a45544e4435a8edaf1a5c8ec9ec819e9b5d0366f64df",
     "44cc7c2b771b5c62646077b0e3c48e9e4173323be36691e25a546e831351f425"),
    (FIB40, 3, "csv", "f9a7387dddad462da7c2a45544e4435a8edaf1a5c8ec9ec819e9b5d0366f64df",
     "685509e266e0fa9fb264e7f29e77445f16e2a0812153258ca5db5b38b4afc45d"),
]


@pytest.mark.parametrize("matrix, radius, fmt, ball_sha, report_sha", BFS_PINS,
                         ids=["fib-r9", "fib-r9-csv", "3d-r6", "3d-r6-csv", "neg1-r5", "neg1-r5-csv",
                              "fib40-r3", "fib40-r3-csv"])
def test_bfs_bytes_pinned(tmp_path, monkeypatch, capsys, matrix, radius, fmt, ball_sha, report_sha):
    # a relative --out keeps the echoed config free of the temporary path
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "bfs", "--semidirect", matrix, "--radius", str(radius),
                    "--out", "ball.jsonl", "--format", fmt)
    assert code == 0
    report = "".join(l for l in out.splitlines(True) if not l.startswith('  "timestamp": '))
    assert hashlib.sha256((tmp_path / "ball.jsonl").read_bytes()).hexdigest() == ball_sha
    assert hashlib.sha256(report.encode()).hexdigest() == report_sha


def test_bfs_resource_guard_mid_ball(tmp_path, capsys):
    # layers 1, 6, 26, 70, 170 fit in 1000 states; expanding the fifth would
    # project 273 + 170 * 6 = 1293
    out = tmp_path / "b.jsonl"
    code = main(["bfs", "--semidirect", "[[2,1],[1,1]]", "--radius", "9",
                 "--state-cap", "1000", "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err == "resource guard: projected ball size 1293 exceeds the cap 1000\n"
    assert captured.out == "" and not out.exists()


def test_closure(tmp_path, capsys):
    gens = {"matrices": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}
    path = tmp_path / "sl2gens.json"
    path.write_text(json.dumps(gens))
    code, report = run_json(capsys, "closure", "--gens", str(path), "--mod", "2")
    assert code == 0
    assert report["result"]["order"] == 6    # SL(2,2) = S_3
    # 0 x 0 generators give the trivial group, as bfs and charpoly take 0 x 0
    for mod in ("2", "100003"):
        code, report = run_json(capsys, "closure", "--gens", '[{"rows":0,"cols":0,"entries":[]}]', "--mod", mod)
        assert code == 0 and report["result"]["order"] == 1 and report["result"]["histogram"] == [1]


def test_bound_curve(capsys):
    code, report = run_json(capsys, "bound-curve", "--mu-p", "exp:2", "--mu-d", "exp:2",
                            "--c", "2", "--n-max", "3")
    assert code == 0
    assert [r["value"] for r in report["result"]["rows"]] == ["8", "64", "2048"]
    code, out = run(capsys, "bound-curve", "--mu-p", "poly:0,0,1", "--mu-d", "poly:0,1",
                    "--c", "2", "--n-max", "4", "--format", "csv")
    assert out.strip().splitlines()[-1] == "4,256"


def test_bound_curve_resource_guard(capsys):
    # C^mu_D(10) = 2^(10^10): the estimate trips before any power is computed
    assert main(["bound-curve", "--mu-p", "poly:1", "--mu-d", "exp:10", "--c", "2",
                 "--n-max", "10"]) == 3
    assert "resource guard" in capsys.readouterr().err
    # C = 1 never trips, however fast mu_D grows
    code, report = run_json(capsys, "bound-curve", "--mu-p", "poly:0,1", "--mu-d", "exp:10",
                            "--c", "1", "--n-max", "12")
    assert code == 0
    assert [r["value"] for r in report["result"]["rows"]] == [str(n) for n in range(1, 13)]


def test_bound_curve_print_limit(capsys):
    # 2^20000 has 6,021 digits, past the int-to-str limit: a size guard, not bad input
    assert main(["bound-curve", "--mu-p", "poly:1", "--mu-d", "poly:0,20000", "--c", "2",
                 "--n-max", "1"]) == 3
    assert "resource guard" in capsys.readouterr().err
    # mu_D(n_max) = 10^(10^30) is estimated in the log domain, never built
    assert main(["bound-curve", "--mu-p", "poly:1", "--mu-d", "exp:10", "--c", "2",
                 "--n-max", str(10 ** 30)]) == 3
    assert "resource guard" in capsys.readouterr().err


def test_bound_curve_row_count_guard(capsys):
    # one-digit rows: 200,000 of them would print about 11.7 MB, 10^12 would
    # never finish; both are refused from the estimate, before any row is built
    for n_max in ("200000", str(10 ** 12)):
        assert main(["bound-curve", "--mu-p", "poly:1", "--mu-d", "poly:0", "--c", "1",
                     "--n-max", n_max]) == 3
        assert "resource guard" in capsys.readouterr().err
    # rows of about 4,200 digits: a thousand fit, three thousand do not
    argv = ["bound-curve", "--mu-p", "poly:1", "--mu-d", "poly:14000", "--c", "2", "--n-max"]
    code, report = run_json(capsys, *argv, "1000")
    assert code == 0 and len(report["result"]["rows"]) == 1000
    assert main(argv + ["3000"]) == 3
    assert "resource guard" in capsys.readouterr().err


def test_phyp_search_budget_below_one(monkeypatch, capsys):
    # a budget below 1 is an input error, like bfs's radius and witness's n
    with monkeypatch.context() as patch:
        patch.setattr(engine, "char_polys", lambda mats: pytest.fail("a candidate was tested"))
        for budget in ("-3", "0"):
            assert main(["phyp-search", "--gens", "[[[2,1],[1,1]]]", "--budget", budget]) == 2
            out = capsys.readouterr()
            assert out.out == "" and out.err == "error: need budget >= 1\n"
        with pytest.raises(ValueError, match="need budget >= 1"):
            engine.search_partially_hyperbolic([exact.IntMatrix.identity(2)], budget=-3)
    assert main(["phyp-search", "--gens", "[[[2,1],[1,1]]]", "--budget", "1"]) == 0


def test_phyp_search_resource_guard(capsys):
    # 40 generators at budget 4: 80 * 79^3 + ... = 39,948,800 candidate words
    gens = json.dumps([[[1, 0], [0, 1]]] * 40)
    assert main(["phyp-search", "--gens", gens, "--budget", "4"]) == 3
    assert "resource guard" in capsys.readouterr().err


def test_phyp_search_deeper_products_guarded(monkeypatch, capsys):
    # with y = 2^1000 each generator passes a cap of 10^4 and their depth-2
    # product does not: the search exits 3 at that product's stack
    y = 2 ** 1000
    gens = cli._gens_arg(shear_pair(y))
    product = exact.mat_mul(gens[0], gens[1])
    assert [exact.char_poly_work(G) for G in gens + [product]] == [5375, 5375, 44895]
    argv = ["phyp-search", "--budget", "2", "--gens", shear_pair(y)]
    with monkeypatch.context() as patch:
        patch.setattr(exact, "CHAR_POLY_MAX_WORK", 10 ** 4)
        assert main(argv) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("resource guard: the characteristic polynomial of a rank-2 ")
    # under the real cap the same search finds that product
    code, report = run_json(capsys, *argv)
    assert code == 0 and report["result"]["word"] == [[0, 1], [1, 1]]


def test_phyp_and_charpoly_work_guard(tmp_path, monkeypatch, capsys):
    # a 100 x 100 diagonal of 4001-digit entries asks for about 53,000
    # primes of 100^3 steps each: both commands exit 3 before char_poly
    big = str(10 ** 4000)
    path = tmp_path / "big.json"
    path.write_text(json.dumps([[big if i == j else 0 for j in range(100)] for i in range(100)]))
    assert exact.char_poly_work(cli._matrix_arg(str(path))) > exact.CHAR_POLY_MAX_WORK

    monkeypatch.setattr(exact, "_char_poly_mod", lambda H, p: pytest.fail("_char_poly_mod ran"))
    for command in ("phyp", "charpoly"):
        assert main([command, "--matrix", str(path)]) == 3
        assert "resource guard" in capsys.readouterr().err
    # phyp-search tests each generator at depth 1: it exits 3 before it
    # inverts one (a long det on huge non-unimodular input)
    monkeypatch.setattr(exact.IntMatrix, "inverse", lambda self: pytest.fail("a generator was inverted"))
    gens = tmp_path / "gens.json"
    gens.write_text("[" + path.read_text() + "]")
    assert main(["phyp-search", "--gens", str(gens)]) == 3
    assert "resource guard" in capsys.readouterr().err
    # a non-square matrix is an input error, as before
    assert main(["phyp", "--matrix", "[[1,2]]"]) == 2
    # the estimate is the CRT bits over the bits per prime: a rank-208
    # matrix of one-digit entries stays far below the cap
    rank208 = exact.IntMatrix.from_rows([[(i * j) % 7 - 3 for j in range(208)] for i in range(208)])
    assert exact.char_poly_work(rank208) < exact.CHAR_POLY_MAX_WORK // 10


def test_usage_errors(capsys, tmp_path):
    assert main(["phyp", "--matrix", "not json ["]) == 2
    assert main(["membership", "--kind", "level", "--word", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["phyp", "--matrix", str(bad)]) == 2
    # malformed JSON shapes are input errors (2), never a negative verdict (1)
    word = ["membership", "--kind", "torelli", "--word"]
    witness = ["witness", "--preset", "torelli", "--g", "3", "--x", '[["T_a1",1],["T_b1",-1]]', "--y",
               "bp:a1+b1,b1+b2,b3", "--n", "3", "--psi-table"]
    table = json.loads((resources.files("distortion") / "data" / "torelli_psi_g3_closed.json").read_text())
    assert main(witness + [json.dumps(table)]) == 0
    capsys.readouterr()
    for argv in (
        word + ['{"genus":2,"letters":5}'],
        word + ['{"genus":2,"letters":[5]}'],
        word + ['[1,2]'],
        word + ['{"genus":[2],"letters":[]}'],
        word + ['{"genus":2,"letters":[{"class":5,"exp":1}]}'],
        ["phyp", "--matrix", "[1,2]"],
        ["phyp-search", "--gens", "[[1,2]]"],
        ["closure", "--gens", '{"matrices":5}', "--mod", "2"],
        ["closure", "--gens", "[[[1,1],[0,1]]]", "--mod", "2", "--state-cap", "0"],
        ["closure", "--gens", "[[[1,1],[0,1]]]", "--mod", "2", "--state-cap", "-1"],
        ["bfs", "--semidirect", "[[2,1],[1,1]]", "--radius", "3", "--state-cap", "0"],
        ["bfs", "--semidirect", "[[2,1],[1,1]]", "--radius", "3", "--state-cap", "-1"],
        ["witness", "--preset", "pointpush", "--g", "2", "--x", "[5]", "--y", "push_a1", "--n", "3"],
        ["witness", "--preset", "torelli", "--g", "3", "--psi-table", '{"module_rank":14,"gens":5}',
         "--x", '[["T_a1",1]]', "--y", "T_a1", "--n", "3"],
        ["witness", "--preset", "torelli", "--g", "3", "--psi-table", "[1]",
         "--x", '[["T_a1",1]]', "--y", "T_a1", "--n", "3"],
        # every JSON integer is an int or a decimal string: floats, bools and
        # 1e400 (read as inf) are refused, not rounded, coerced or overflowed
        *([cmd, arg, text.replace("X", bad), *rest]
          for bad in ("2.7", "true", "1e400", '"2.5"')
          for cmd, arg, text, *rest in (("phyp", "--matrix", "[[X,1],[1,0]]"),
                                        ("closure", "--gens", "[[[X,1],[1,0]]]", "--mod", "2"),
                                        ("bfs", "--semidirect", "[[X,1],[1,1]]", "--radius", "2"))),
        word + ['{"genus":2,"letters":[{"class":[1,0,0,0],"exp":1.5}]}'],
        word + ['{"genus":2.0,"letters":[{"class":[1,0,0,0],"exp":1}]}'],
        word + ['{"genus":2,"letters":[{"class":[1.5,0,0,0],"exp":1}]}'],
        witness + [json.dumps({**table, "module_rank": 14.0})],
        witness + [json.dumps({**table, "gens": [{**table["gens"][0], "psi": [1.5] + table["gens"][0]["psi"][1:]},
                                                 *table["gens"][1:]]})],
        ["witness", "--preset", "pointpush", "--g", "2", "--x", '[["T_a1",1.5],["T_b1",-1]]', "--y", "push_a1",
         "--n", "3"],
        ["phyp", "--matrix", '["12","10"]'],
        ["phyp", "--matrix", "[" * 100_000 + "]" * 100_000],
        # a W basis wider than 2g is refused before the Smith form builds a
        # cols x cols transform
        ["membership", "--kind", "tw", "--word", '{"genus":1,"letters":[]}', "--w",
         '{"rows":0,"cols":100000000,"entries":[]}'],
        ["target", "--g", "3", "--w", json.dumps([[0] * 20_000] * 6)],
    ):
        assert main(argv) == 2, argv
        assert "error: " in capsys.readouterr().err
    # a decimal string past the int-to-str digit limit is refused with the limit named
    if limit := getattr(sys, "get_int_max_str_digits", lambda: 0)():
        assert main(["charpoly", "--matrix", json.dumps([["1" + "0" * limit]])]) == 2
        assert capsys.readouterr().err == \
            f"error: a decimal string may have at most {limit} digits; this one has {limit + 1}\n"
    with pytest.raises(SystemExit) as exc:
        main(["nonsense-command"])
    assert exc.value.code == 2


def test_decimal_strings_are_sign_and_ascii_digits(capsys):
    # int() also takes spaces, underscores and non-ASCII digits: each is an
    # input error that names the value, as "1.5" is
    for text in (" 12 ", "1_000", "\u0661", "\uff11\uff12", "1.5", "+", ""):
        assert main(["phyp", "--matrix", json.dumps([[text]])]) == 2, text
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: expected an integer or a decimal string, got {text!r}\n")
    long = "9" * 100 + "x"
    assert main(["phyp", "--matrix", json.dumps([[long]])]) == 2
    assert capsys.readouterr().err == f"error: expected an integer or a decimal string, got {long!r:.60}\n"
    for text, value in (("-12", -12), ("+7", 7), ("007", 7)):
        assert exact.int_from_json(text) == value


def test_witness_symbols_are_strings(monkeypatch, capsys):
    # a symbol that is not a string is refused where the word is read
    monkeypatch.setattr(cli, "witness_certificate", lambda *a: pytest.fail("the engine was reached"))
    for x in ("[[5,1]]", '[[["T_a1"],1]]', '[["T_a1",1],[null,1]]'):
        assert main(["witness", "--preset", "pointpush", "--g", "2", "--x", x, "--y", "push_a1", "--n", "3"]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == \
            ("", 'error: x is a list of [symbol, exponent] pairs, bare or as {"word": [...]}\n'), x


# commands without a table print JSON only: --format csv is a usage error,
# refused by the parser before any input is read
@pytest.mark.parametrize("argv", [
    ["phyp", "--matrix", "[[2,1],[1,1]]"],
    ["charpoly", "--matrix", "[[2,1],[1,1]]"],
    ["wedge3", "--matrix", "[[1,0,0],[0,1,0],[0,0,1]]"],
    ["target", "--g", "3"],
    ["membership", "--kind", "torelli", "--word", '{"genus":1,"letters":[]}'],
    ["phyp-search", "--gens", "[[[2,1],[1,1]]]"],
], ids=lambda argv: argv[0])
def test_csv_only_for_tables(capsys, argv):
    assert main(argv + ["--format", "json"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "csv"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "argument --format: invalid choice: 'csv'" in out.err


@pytest.mark.parametrize("kind, message", [
    ("level", "level membership needs --m"),
    ("modw", "modw membership needs --w"),
    ("tw", "tw membership needs --w"),
])
def test_membership_needs_its_option(capsys, kind, message):
    assert main(["membership", "--kind", kind, "--word", '{"genus":1,"letters":[]}']) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")


def test_unknown_symbol_messages_unquoted(capsys):
    # a KeyError's message is printed as given, not as str(KeyError) quotes it
    witness = ["witness", "--preset", "pointpush", "--g", "2", "--n", "3"]
    assert main(witness + ["--x", '[["nope",1]]', "--y", "push_a1"]) == 2
    assert capsys.readouterr().err == "error: unknown symbol 'nope'\n"
    assert main(witness + ["--x", '[["T_a1",1],["T_b1",-1]]', "--y", "nope"]) == 2
    assert capsys.readouterr().err == "error: unknown subgroup symbol 'nope'\n"
    # a missing key of a JSON object is a shape error, not a bare key name
    for argv, shape in (
        (["witness", "--preset", "torelli", "--g", "3", "--psi-table", '{"gens": []}', "--x", '[["T_a1",1]]', "--y",
          "T_a1", "--n", "3"], "a value table is"),
        (["phyp", "--matrix", '{"rows": 2, "cols": 2}'], "a matrix is"),
        (["closure", "--gens", '{"m": 1}', "--mod", "2"], "generators are"),
        (["membership", "--kind", "torelli", "--word", '{"letters": []}'], "expected an integer"),
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: {shape}"), argv


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code = main(["phyp", "--matrix", "[[2,1],[1,1]]", "--out", str(dest)])
    assert code == 0
    report = json.loads(dest.read_text())
    assert report["result"]["partially_hyperbolic"] is True


# one report of every kind; the writer must print each as json.dumps(report,
# indent=2, sort_keys=True) does
REPORT_KINDS = {
    "phyp": ["phyp", "--matrix", "[[2,1],[1,1]]"],
    "charpoly": ["charpoly", "--matrix", "[[2,1,0],[1,1,0],[0,0,-1]]"],
    "wedge3": ["wedge3", "--matrix", "[[3,1,-2,-4,3],[9,0,8,-1,3],[9,-9,-2,-9,5],[-5,-5,1,-4,-1]]"],
    "target": ["target", "--g", "3", "--w", "[[1,0],[0,0],[0,0],[0,1],[0,0],[0,0]]"],
    "membership": ["membership", "--kind", "torelli", "--word", json.dumps(MEMBERSHIP_G6)],
    "witness": ["witness", "--preset", "torelli", "--g", "3", "--x", LINKED, "--y", "bp:a1+b1,b1+b2,b3", "--n", "60"],
    "phyp-search-found": ["phyp-search", "--gens", "[[[1,-1],[0,1]],[[1,0],[1,1]]]", "--budget", "3", "--seed", "5"],
    "phyp-search-not-found": ["phyp-search", "--gens", "[[[1,0],[0,1]]]", "--budget", "2"],
    "bfs": ["bfs", "--semidirect", "[[0,1,0],[0,0,1],[1,1,0]]", "--radius", "4"],
    "closure": ["closure", "--gens", "[[[1,1],[0,1]],[[1,0],[1,1]]]", "--mod", "3"],
    "bound-curve": ["bound-curve", "--mu-p", "exp:2", "--mu-d", "poly:1,2", "--c", "3", "--n-max", "5"],
}


@pytest.mark.parametrize("argv", REPORT_KINDS.values(), ids=REPORT_KINDS.keys())
def test_reports_print_as_json_dumps(tmp_path, capsys, argv):
    code, out = run(capsys, *argv)
    assert code in (0, 1) and out.startswith("{")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    if argv[0] == "bfs":
        return      # its --out is the ball file
    # --out writes the same bytes, apart from the echoed path and the timestamp
    dest = tmp_path / "report.json"
    assert main(argv + ["--out", str(dest)]) == code
    assert capsys.readouterr().out == ""

    def fixed(text):
        return [l for l in text.splitlines(True) if not l.startswith(('  "timestamp": ', '    "out": '))]

    assert fixed(dest.read_bytes().decode()) == fixed(out)


ADVERSARIAL = [
    # strings that hold the writer's separators and brackets, control and
    # non-ASCII characters
    ["},\n{", "],\n[", "\x01", ",", "[", "]", "{", "}", "a,\nb", "\n", "", "\u00e9\u2603\U0001f600"],
    {"": "},\n{", "},\n{": ["],\n["], "\x01": {"\n": ","}, "\u00e9": "\u00e9"},
    [{"a": "},\n{", "b": 1}, {"a": "]", "b": "{"}],
    [["],\n[", ","], ["[", "]"]],
    # empty containers inside lists and as record items
    [[], {}], [[], [1]], [{}, {"a": 1}], [[1], {"a": 1}], [[1], (2, 3)], {"a": [], "b": {}},
    [[{"a": 1}, {"b": [2]}], [{"c": 3}]], [[[{"a": 1}]]], {"": {"": [{"": ""}]}},
    # floats and constants
    [float("nan"), float("inf"), float("-inf"), -0.0, 1e300, 1e-300, 0.1, True, False, None, 0, -7, 2 ** 70],
    {"f": [float("nan"), {"x": float("inf")}], "t": True, "n": None}, [{"a": -0.0}, {"a": 1e300, "b": None}],
    # keys that are not strings, and scalars alone
    {1: "a", 2: ["b"]}, {10: [1], 9: [2]}, {None: [1]}, {True: {"x": 1}, False: [2]}, {1.5: [], 2.5: [1]},
    "},\n{", 5, None, [], {}, (), [()], [(1,), (2, 3)],
]


@pytest.mark.parametrize("encoder", ["c", "python"])
@pytest.mark.parametrize("obj", ADVERSARIAL)
def test_writer_matches_json_dumps(monkeypatch, obj, encoder):
    # without the C encoder (an interpreter without _json) the same code
    # prints the same bytes
    if encoder == "python":
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert cli._dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


def entries_bytes(out: str) -> int:
    """Bytes of the first "entries" array in a report, brackets included: the
    entries of a matrix that is a value of the result."""
    start = out.index('"entries": [') + len('"entries": ')
    return out.index("\n      ]", start) + len("\n      ]") - start


def test_report_size_floors(monkeypatch, capsys):
    # the size guards count bytes of report per item before computing any:
    # each count must be a floor of what a real report prints
    row_count = 60
    code, out = run(capsys, "witness", "--preset", "pointpush", "--g", "2", "--x", LINKED, "--y", "push_a1",
                    "--n", str(row_count))
    assert code == 0
    start = out.index('"rows": [\n') + len('"rows": [\n')
    rows = out[start:out.index("\n    ]", start) + 1].split("      },\n")
    assert len(rows) == row_count
    # every row but the last is WITNESS_ROW_BYTES besides the digits of its
    # three numbers; the last has no comma
    for i, row in enumerate(rows):
        size = len(row) + (len("      },\n") if i < row_count - 1 else 0)
        assert size - sum(map(str.isdigit, row)) == engine.WITNESS_ROW_BYTES - (i == row_count - 1)
    # a one-digit induced entry and a minor take the fewest bytes; the
    # genus-12 identity prints 9,128 bytes of entries, under 16 per entry
    seen = []
    monkeypatch.setattr(cli, "_limit_report", lambda count, each, what: seen.append((count, each)))
    for argv in (REPORT_KINDS["membership"], REPORT_KINDS["wedge3"], ["wedge3", "--matrix", "[[1,0,0],[0,1,0],[0,0,1]]"],
                 ["membership", "--kind", "torelli", "--word", '{"genus": 12, "letters": []}']):
        code, out = run(capsys, *argv)
        assert code == 0
        count, each = seen.pop()
        assert count > 0 and entries_bytes(out) >= count * each, argv


def test_malformed_json_fuzz(tmp_path, monkeypatch, capsys):
    # any JSON value, at most 4 wide at each level, or one of the argument's
    # shape with any leaves, in each JSON argument: main answers with an
    # exit code and lets no exception escape
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    monkeypatch.chdir(tmp_path)     # a value that is not inline JSON is read as a file name
    keys = st.sampled_from(["rows", "cols", "entries", "matrices", "genus", "letters", "class", "exp",
                            "module_rank", "gens", "symbol", "psi", "word"]) | st.text(max_size=3)
    leaves = (st.none() | st.booleans() | st.integers(-3, 4) | st.floats() | st.text(max_size=3)
              | st.sampled_from([14, "T_a1", "T_b1", "push_a1", "bp:a1+b1,b1+b2,b3"]))
    values = st.recursive(leaves, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(keys, kids, max_size=4),
                          max_leaves=16)
    cell = st.integers(-1, 1) | leaves
    square = st.integers(0, 4).flatmap(lambda n: st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n,
                                                          max_size=n))
    letter = st.fixed_dictionaries({"class": st.lists(cell, max_size=4), "exp": cell})
    gen = st.fixed_dictionaries({"symbol": leaves, "psi": st.lists(cell, max_size=4)})
    torelli = ["witness", "--preset", "torelli", "--g", "3", "--y", "bp:a1+b1,b1+b2,b3", "--n", "3"]
    for argv, shaped in (
        (["phyp", "--matrix=X"], square),
        (["phyp-search", "--gens=X", "--budget", "2"], st.lists(square, max_size=3)),
        (["membership", "--kind", "torelli", "--word=X"],
         st.fixed_dictionaries({"genus": cell, "letters": st.lists(letter, max_size=3)})),
        (torelli + ["--x", '[["T_a1",1],["T_b1",-1]]', "--psi-table=X"],
         st.fixed_dictionaries({"module_rank": cell, "gens": st.lists(gen, max_size=4)})),
        (["witness", "--preset", "pointpush", "--g", "2", "--y", "push_a1", "--n", "3", "--x=X"],
         st.lists(st.lists(cell, min_size=2, max_size=2), max_size=3)),
    ):

        @hyp.settings(max_examples=100, deadline=None)
        @hyp.given(values | shaped)
        def check(value):
            code = main([a.replace("=X", "=" + json.dumps(value)) for a in argv])
            capsys.readouterr()
            assert code in (0, 1, 2, 3)

        check()
