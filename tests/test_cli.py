from __future__ import annotations

import json

import pytest

from f2rank.cli import main
from f2rank.gf2 import BitMatrix
from f2rank.graph import from_graph6
from f2rank.constructions import g2_power, linegraph_clique_plus_isolated


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_graph6(capsys):
    code, out, _ = run(capsys, "construct", "--family", "g2pow", "--param", "2", "--format", "graph6")
    assert code == 0
    assert from_graph6(out.strip()) == g2_power(2)
    assert from_graph6(out.strip()).order == 16


def test_construct_families(tmp_path, capsys):
    for family, param, order in [("g2pow", 2, 16), ("linegraph-k", 6, 16), ("odd", 3, 8)]:
        path = tmp_path / f"{family}.f2m"
        code, _, _ = run(capsys, "construct", "--family", family, "--param", str(param), "--out", str(path))
        assert code == 0
        m = BitMatrix.from_f2mat(path.read_text())
        assert m.rows == order


def test_construct_bad_param(capsys):
    code, _, err = run(capsys, "construct", "--family", "odd", "--param", "4")
    assert code == 2 and "error" in err


def test_verify_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.f2m"
    good.write_text(g2_power(3).adj.to_f2mat())
    code, out, _ = run(capsys, "verify", str(good), "--expect-n", "6")
    assert code == 0 and "overall: PASS" in out

    bad = tmp_path / "bad.f2m"
    bad.write_text(g2_power(1).adj.to_f2mat())
    code, out, _ = run(capsys, "verify", str(bad), "--expect-n", "3")
    assert code == 1 and "overall: FAIL" in out


def test_verify_json_schema(tmp_path, capsys):
    path = tmp_path / "g.f2m"
    path.write_text(g2_power(2).adj.to_f2mat())
    code, out, _ = run(capsys, "verify", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload.keys()) == ["input", "checks", "rank", "srg", "spectrum", "pass"]
    assert payload["input"] == {"order": 16, "format": "f2mat"}
    assert payload["rank"] == 4
    assert payload["srg"] == [15, 8, 4, 4]
    assert payload["pass"] is True
    assert all(set(c.keys()) == {"name", "pass", "details"} for c in payload["checks"])
    assert any(c["multiplicity"] == 9 for c in payload["spectrum"])


def test_verify_json_degenerate_srg(tmp_path, capsys):
    # the order-4 member's core is a triangle: mu has no witness -> null
    path = tmp_path / "g2.f2m"
    path.write_text(g2_power(1).adj.to_f2mat())
    code, out, _ = run(capsys, "verify", str(path), "--expect-n", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["srg"] == [3, 2, 1, None]


def test_verify_expect_n_out_of_range(tmp_path, capsys):
    # 2^n is never built for an n that cannot match the order
    path = tmp_path / "g2.f2m"
    path.write_text(g2_power(1).adj.to_f2mat())
    for n in (10**9, -1):
        code, out, _ = run(capsys, "verify", str(path), "--expect-n", str(n))
        assert code == 1
        assert out.splitlines()[0] == f"FAIL  order  (order 4, expected 2^{n})"
    code, out, _ = run(capsys, "verify", str(path), "--expect-n", "2")
    assert code == 0 and out.splitlines()[0] == "PASS  order  (order 4, expected 4)"


def test_verify_small_orders(tmp_path, capsys):
    for order in (0, 1):
        path = tmp_path / f"k{order}.f2m"
        path.write_text(BitMatrix.zeros(order, order).to_f2mat())
        code, out, _ = run(capsys, "verify", str(path), "--json")
        assert code == 1
        entry = {c["name"]: c for c in json.loads(out)["checks"]}["spectrum_matches_analytic"]
        if order == 0:
            assert entry["pass"] and entry["details"] == "skipped: empty graph"
        else:
            assert not entry["pass"] and "not a 4^m instance" in entry["details"]


def test_verify_malformed_input(tmp_path, capsys):
    path = tmp_path / "broken.f2m"
    path.write_text("f2mat 2 2\n0X\n00\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "error" in err
    missing = tmp_path / "missing.f2m"
    code, _, err = run(capsys, "verify", str(missing))
    assert code == 2


def test_rank_command(tmp_path, capsys):
    path = tmp_path / "lk6.f2m"
    path.write_text(linegraph_clique_plus_isolated(6).adj.to_f2mat())
    code, out, _ = run(capsys, "rank", str(path))
    assert code == 0 and out == "4\n"


def test_spectrum_command(tmp_path, capsys):
    path = tmp_path / "g2.f2m"
    path.write_text(g2_power(1).adj.to_f2mat())
    code, out, _ = run(capsys, "spectrum", str(path))
    assert code == 0
    spec = json.loads(out)
    assert [e["multiplicity"] for e in spec] == [1, 1, 2]


def test_spectrum_refuses_oversized(tmp_path, capsys):
    path = tmp_path / "big.f2m"
    n = 1025
    path.write_text(f"f2mat {n} {n}\n" + "\n".join("0" * n for _ in range(n)) + "\n")
    code, _, err = run(capsys, "spectrum", str(path))
    assert code == 2 and "1024" in err


def test_search_modes(capsys):
    code, out, _ = run(capsys, "search", "--mode", "n2-unique")
    assert code == 0
    cert = json.loads(out)
    assert cert["mode"] == "n2-unique" and cert["pass"] is True
    assert list(cert.keys()) == [
        "mode",
        "candidates_examined",
        "violations",
        "stats",
        "pass",
        "elapsed_ms",
    ]

    code, out, _ = run(capsys, "search", "--mode", "n3-structured")
    assert code == 0
    assert json.loads(out)["candidates_examined"] == 8

    code, out, _ = run(capsys, "search", "--mode", "n3-exhaustive", "--stop", str(1 << 16))
    assert code == 0
    cert = json.loads(out)
    assert cert["candidates_examined"] == 1 << 16 and cert["violations"] == []


def test_search_workers_env(capsys, monkeypatch):
    monkeypatch.setenv("F2RANK_THREADS", "2")
    code, out, _ = run(capsys, "search", "--mode", "n3-exhaustive", "--stop", str(1 << 15))
    assert code == 0 and json.loads(out)["pass"] is True


def test_iso_command(tmp_path, capsys):
    a = tmp_path / "a.f2m"
    b = tmp_path / "b.f2m"
    a.write_text(linegraph_clique_plus_isolated(6).adj.to_f2mat())
    b.write_text(g2_power(2).adj.to_f2mat())
    code, out, _ = run(capsys, "iso", str(a), str(b))
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphic"] is True and len(payload["witness"]) == 16

    c = tmp_path / "c.f2m"
    c.write_text(g2_power(1).adj.to_f2mat())
    code, out, _ = run(capsys, "iso", str(a), str(c))
    assert code == 1 and json.loads(out)["isomorphic"] is False


def test_convert_round_trip(tmp_path, capsys):
    f2m = tmp_path / "g.f2m"
    g6 = tmp_path / "g.g6"
    back = tmp_path / "back.f2m"
    f2m.write_text(g2_power(2).adj.to_f2mat())
    assert run(capsys, "convert", str(f2m), str(g6), "--format", "graph6")[0] == 0
    assert run(capsys, "convert", str(g6), str(back), "--format", "f2mat")[0] == 0
    assert back.read_text() == f2m.read_text()


def test_convert_round_trip_constructed_families(tmp_path, capsys):
    # 4096 vertices is the largest constructed family member
    for g in (g2_power(4), linegraph_clique_plus_isolated(8), g2_power(6)):
        f2m = tmp_path / "in.f2m"
        g6 = tmp_path / "mid.g6"
        back = tmp_path / "out.f2m"
        f2m.write_text(g.adj.to_f2mat())
        run(capsys, "convert", str(f2m), str(g6), "--format", "graph6")
        run(capsys, "convert", str(g6), str(back), "--format", "f2mat")
        assert back.read_text() == f2m.read_text()


def test_bench_command(capsys):
    code, out, _ = run(capsys, "bench", "--op", "rank", "--size", "64", "--reps", "3")
    assert code == 0 and "median=" in out
    code, _, err = run(capsys, "bench", "--op", "sort", "--size", "8")
    assert code == 2


def test_cli_determinism(tmp_path, capsys):
    path = tmp_path / "g.f2m"
    path.write_text(g2_power(2).adj.to_f2mat())
    outputs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "verify", str(path), "--json")
        outputs.add(out)
    assert len(outputs) == 1
    certs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "search", "--mode", "n3-exhaustive", "--stop", str(1 << 14))
        cert = json.loads(out)
        cert["elapsed_ms"] = 0
        certs.add(json.dumps(cert))
    assert len(certs) == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2
