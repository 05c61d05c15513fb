"""CLI tests, run in-process through main(argv)."""

import json

import pytest

from distortion.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out) if out.strip().startswith("{") else out


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


def test_target(capsys):
    code, report = run_json(capsys, "target", "--g", "3", "--variant", "closed")
    assert code == 0
    assert report["result"]["free_rank"] == 14
    assert report["result"]["torsion"] == []


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


def test_closure(tmp_path, capsys):
    gens = {"matrices": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]}
    path = tmp_path / "sl2gens.json"
    path.write_text(json.dumps(gens))
    code, report = run_json(capsys, "closure", "--gens", str(path), "--mod", "2")
    assert code == 0
    assert report["result"]["order"] == 6    # SL(2,2) = S_3


def test_bound_curve(capsys):
    code, report = run_json(capsys, "bound-curve", "--mu-p", "exp:2", "--mu-d", "exp:2",
                            "--c", "2", "--n-max", "3")
    assert code == 0
    assert [r["value"] for r in report["result"]["rows"]] == ["8", "64", "2048"]
    code, out = run(capsys, "bound-curve", "--mu-p", "poly:0,0,1", "--mu-d", "poly:0,1",
                    "--c", "2", "--n-max", "4", "--format", "csv")
    assert out.strip().splitlines()[-1] == "4,256"


def test_usage_errors(capsys, tmp_path):
    assert main(["phyp", "--matrix", "not json ["]) == 2
    assert main(["membership", "--kind", "level", "--word", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["phyp", "--matrix", str(bad)]) == 2
    for malformed in ('{"genus":2,"letters":5}', '{"genus":2,"letters":[5]}', '[1,2]'):
        assert main(["membership", "--kind", "torelli", "--word", malformed]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense-command"])
    assert exc.value.code == 2


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code = main(["phyp", "--matrix", "[[2,1],[1,1]]", "--out", str(dest)])
    assert code == 0
    report = json.loads(dest.read_text())
    assert report["result"]["partially_hyperbolic"] is True
