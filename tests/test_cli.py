from __future__ import annotations

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import random
import re
import signal
import subprocess
import sys
import tempfile

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import f2rank
from f2rank.cli import main
from f2rank.gf2 import BitMatrix
from f2rank.graph import Graph, from_graph6
from f2rank.constructions import extremal_odd_plus_one, g2_power, linegraph_clique_plus_isolated
from f2rank.search import N3_SPAN

from conftest import random_graph, relabel


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


# SHA-256 of every construct output below, as the chain of parity products
# and the row-by-row graph6 codec wrote them; a builder or codec change
# must leave these bytes alone
CONSTRUCT_DIGESTS = {
    ('g2pow', 1, 'f2mat'): "e24ceae45eaf47272e2539c6c7821907d697a400b9066a0a9a28993f241feaf2",
    ('g2pow', 1, 'graph6'): "d126348003250697a2d10f617fdda18897bfb86709644678260fab038010a3ce",
    ('g2pow', 2, 'f2mat'): "a50983e6c687c80db6cb52e53277db64002baf7473cdf64c905a0a53e579d188",
    ('g2pow', 2, 'graph6'): "01005a965e5558ae059f0f2580838deb955ea51c52e08d93df852b0b7ce5078e",
    ('g2pow', 3, 'f2mat'): "c9a705f242c9916e6386d1a850d2d1a495bc7f6c61ad97c51f5f304f16ac2a6e",
    ('g2pow', 3, 'graph6'): "fa8e096922839aa0714a8c22b4f595585cb73991c85e9e947a734485b3947c51",
    ('g2pow', 4, 'f2mat'): "4d9479ca492e97da28f5c6caad5e7041226063596ad7c287ba1256ef83ac162d",
    ('g2pow', 4, 'graph6'): "b0e4bbb5035e82a832c7a3a21af530d7afc1b58b968a8268876d36b3afeaf0ad",
    ('g2pow', 5, 'f2mat'): "576745dc3ba7cf2a124501632a139a65b00702f7628bf3cfb6fdc09e948aead3",
    ('g2pow', 5, 'graph6'): "4f66fdda6e521a0e826d182a73ffab1dfb9b4e8f6d140bc28bf020675d390dde",
    ('g2pow', 6, 'f2mat'): "0f6da430ba618c6c556ae4d38c483ddc7703bbeb9d541791482f4d48e6100954",
    ('g2pow', 6, 'graph6'): "00ea4afc432466bbca2975ac0206ab6b8c1f8750af3272ccf37741d6ac1f3fa2",
    ('odd', 3, 'f2mat'): "57935a4aeb251ad849ffc014f0132b0b5da75ce7c80f4650a16d0c2356d560d3",
    ('odd', 3, 'graph6'): "2c72c922cd21d67bdab8a7f97fa0369510a45671b86993ab899b462ec43767d2",
    ('odd', 5, 'f2mat'): "3550af57a4ad51df6d3416cb0c892e457d762abc2e730734fab8b6a7b1690dc7",
    ('odd', 5, 'graph6'): "82b637e7acfa03fc0f42abe96b21e15bc5cde488870013df514f4f44cd47656a",
    ('odd', 7, 'f2mat'): "98f17ee86ba345fd6a8e75bc415c76febfb8d2560587506396b994407ed7237e",
    ('odd', 7, 'graph6'): "d4860499d71611c0e3e07c5f959db1affd30798fccd29f43c48c115c9bd73f90",
    ('odd', 9, 'f2mat'): "a4e571bcb9b924b2fd345cf44b78ce7d8aca6084c7c2dd10ad48d5d0ee7e3aea",
    ('odd', 9, 'graph6'): "b109c23e84ec23eb9fe9aa291d7c72dc3090cb1aec9b08f01bf00ea04fd06548",
    ('odd', 11, 'f2mat'): "b630ef1d3b8ace41fc20ff59230f31e9ce0f3cc9ae1a90fcc446d319b15a52a4",
    ('odd', 13, 'f2mat'): "05be65cf0686a07cfbc09da5b4c01b916afb549157f3ac4822fa36959ae7ece0",
    ('linegraph-k', 5, 'f2mat'): "8dab3d7ac3a30b799eea55271c08b57b0df58e7547808c92ce0f07c41214ca83",
    ('linegraph-k', 5, 'graph6'): "c22d613317a99706f36b8b1974d3ff64c03a3561ab99aa407471ad5b331d2d84",
    ('linegraph-k', 8, 'f2mat'): "f304a71fa57b6be2bc3fbca00e8d1674af253412e7055075573cdce1f2e264b3",
    ('linegraph-k', 8, 'graph6'): "5831aeda8932cd5ce93a17cc021e612738d4a74d3c9e9d508594a178761c5a44",
    ('linegraph-k', 20, 'f2mat'): "0c0537bb77b86c77a070ece48f69227e73bea652e7377db7194d051809e2ea82",
    ('linegraph-k', 20, 'graph6'): "65e81f85f222440389dd782cb8888ffc9b19ae41e4dafec6b82f61ae4802d058",
}


@pytest.mark.parametrize("family, param, fmt", list(CONSTRUCT_DIGESTS))
def test_construct_golden_digests(tmp_path, capsys, family, param, fmt):
    path = tmp_path / "out"
    code, _, _ = run(capsys, "construct", "--family", family, "--param", str(param),
                     "--format", fmt, "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CONSTRUCT_DIGESTS[family, param, fmt]


def test_construct_bad_param(capsys):
    code, _, err = run(capsys, "construct", "--family", "odd", "--param", "4")
    assert code == 2 and "error" in err
    # a negative param is the builder's error, not the order cap's
    for family, param, message in [("linegraph-k", -1000, "k must be >= 5"),
                                   ("linegraph-k", -1, "k must be >= 5"),
                                   ("g2pow", -3, "m must be >= 1"),
                                   ("odd", -5, "n must be odd and >= 3")]:
        code, out, err = run(capsys, "construct", "--family", family, "--param", str(param))
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_construct_param_over_order_cap(monkeypatch, capsys):
    from f2rank import cli

    def refuse(param):
        raise AssertionError(f"builder called with param {param}")

    for name in ("g2_power", "linegraph_clique_plus_isolated", "extremal_odd_plus_one"):
        monkeypatch.setattr(cli, name, refuse)
    over = [("g2pow", 8), ("g2pow", 40), ("g2pow", 10**9), ("linegraph-k", 182),
            ("linegraph-k", 10**9), ("odd", 15), ("odd", 41)]
    for family, param in over:
        code, out, err = run(capsys, "construct", "--family", family, "--param", str(param))
        assert code == 2 and out == ""
        assert err == f"error: --family {family} --param {param} exceeds the order cap 16384\n"
    # the largest members under the cap (orders 16384, 16291 and 8192)
    for family, param in [("g2pow", 7), ("linegraph-k", 181), ("odd", 13)]:
        assert not cli._exceeds_order_cap(family, param)


def test_verify_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.f2m"
    good.write_bytes(g2_power(3).adj.to_f2mat())
    code, out, _ = run(capsys, "verify", str(good), "--expect-n", "6")
    assert code == 0 and "overall: PASS" in out

    bad = tmp_path / "bad.f2m"
    bad.write_bytes(g2_power(1).adj.to_f2mat())
    code, out, _ = run(capsys, "verify", str(bad), "--expect-n", "3")
    assert code == 1 and "overall: FAIL" in out


def test_verify_json_schema(tmp_path, capsys):
    path = tmp_path / "g.f2m"
    path.write_bytes(g2_power(2).adj.to_f2mat())
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
    path.write_bytes(g2_power(1).adj.to_f2mat())
    code, out, _ = run(capsys, "verify", str(path), "--expect-n", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["srg"] == [3, 2, 1, None]


def test_verify_expect_n_out_of_range(tmp_path, capsys):
    # 2^n is never built for an n that cannot match the order
    path = tmp_path / "g2.f2m"
    path.write_bytes(g2_power(1).adj.to_f2mat())
    for n in (10**9, -1):
        code, out, _ = run(capsys, "verify", str(path), "--expect-n", str(n))
        assert code == 1
        assert out.splitlines()[0] == f"FAIL  order  (order 4, expected 2^{n})"
    code, out, _ = run(capsys, "verify", str(path), "--expect-n", "2")
    assert code == 0 and out.splitlines()[0] == "PASS  order  (order 4, expected 4)"


def test_verify_small_orders(tmp_path, capsys):
    for order in (0, 1):
        path = tmp_path / f"k{order}.f2m"
        path.write_bytes(BitMatrix.zeros(order, order).to_f2mat())
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
    code, _, err = run(capsys, "verify", str(tmp_path))  # a directory
    assert code == 2 and err.startswith("error:")
    path.write_text("f2mat 0 99999999999999999999\n")  # no rows, absurd width
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and err == "error: adjacency matrix must be square\n"


def _graph6_like(n: int, body: str) -> bytes:
    """A graph6 line whose size field says n, with body cut or padded."""
    want = (n * (n - 1) // 2 + 5) // 6
    return (chr(n + 63) + (body * want)[:want]).encode()


def _graph_file(n: int, bits: int) -> bytes:
    """A valid order-n graph as f2mat, edge k of the upper triangle set
    when bit k of bits is."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [e for k, e in enumerate(pairs) if (bits >> k) & 1]
    return bytes(Graph.from_edges(n, edges).adj.to_f2mat())


# at most 2 KB each, so no input asks for a large order
_INPUT_FILES = st.one_of(
    st.builds(_graph_file, st.integers(0, 24), st.integers(0, (1 << 276) - 1)),
    st.binary(max_size=2048),
    st.text(alphabet="f2mat 01-9\n\r?~Cw", max_size=300).map(str.encode),
    st.builds(
        lambda r, c, body: f"f2mat {r} {c}\n{body}".encode(),
        st.integers(-2, 40),
        st.one_of(st.integers(-2, 40), st.just(10**20)),  # a width no array can take
        st.text(alphabet="01\n x", max_size=1600),
    ),
    st.builds(_graph6_like, st.integers(0, 62), st.text(alphabet="?@_`~w", max_size=64)),
)
# _FILE stands for the random file, _ORDER4 for a file holding the order-4
# family member (graph6 "Cw")
_FILE, _ORDER4 = "<file>", "Cw"
_FUZZED_COMMANDS = [
    ["convert", _FILE, "--format", "graph6"],
    ["convert", _FILE, "--format", "f2mat"],
    ["rank", _FILE],
    ["verify", _FILE],
    ["spectrum", _FILE],
    ["iso", _FILE, _FILE],
    ["iso", _FILE, _ORDER4],
    ["iso", _ORDER4, _FILE],
]


def _sweep_command(start: int, width: int, workers: int) -> list[str]:
    return [
        "search", "--mode", "n3-exhaustive",
        "--start", str(start), "--stop", str(start + width), "--workers", str(workers),
    ]


# ranges at most 4096 wide, so inside one sweep block and never a child
# process; near 0 and near N3_SPAN, empty, reversed and out of bounds included
_SWEEP_COMMANDS = st.builds(
    _sweep_command,
    st.one_of(st.integers(-2, 8192), st.integers(N3_SPAN - 4096, N3_SPAN + 2)),
    st.integers(-2, 4096),
    st.integers(-2, 1),
)


def _no_process(*args, **kwargs):
    raise AssertionError("a sweep process was started")


@settings(max_examples=200, deadline=None)
@given(_INPUT_FILES, st.one_of(st.sampled_from(_FUZZED_COMMANDS), _SWEEP_COMMANDS))
def test_random_input_files_exit_cleanly(data, command):
    paths = {}
    for name, content in ((_FILE, data), (_ORDER4, _ORDER4.encode())):
        fd, paths[name] = tempfile.mkstemp(suffix=".in")
        with os.fdopen(fd, "wb") as fh:
            fh.write(content)
    start = multiprocessing.process.BaseProcess.start
    multiprocessing.process.BaseProcess.start = _no_process
    try:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([paths.get(arg, arg) for arg in command])
            except SystemExit as exc:  # an argparse usage error
                code = exc.code
    finally:
        multiprocessing.process.BaseProcess.start = start
        for path in paths.values():
            os.unlink(path)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


def test_rank_command(tmp_path, capsys):
    path = tmp_path / "lk6.f2m"
    path.write_bytes(linegraph_clique_plus_isolated(6).adj.to_f2mat())
    code, out, _ = run(capsys, "rank", str(path))
    assert code == 0 and out == "4\n"


def test_rank_command_relabelled_member(tmp_path, capsys):
    # order 1024: the byte-column kernel's side of the switch
    path = tmp_path / "g32.f2m"
    path.write_bytes(relabel(g2_power(5), random.Random(9)).adj.to_f2mat())
    code, out, _ = run(capsys, "rank", str(path))
    assert code == 0 and out == "10\n"


def test_spectrum_command(tmp_path, capsys):
    path = tmp_path / "g2.f2m"
    path.write_bytes(g2_power(1).adj.to_f2mat())
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
    # the exact stdout of both certificates, but for the elapsed_ms timing
    pinned = {
        "n2-unique": '{\n  "mode": "n2-unique",\n  "candidates_examined": 64,\n'
        '  "violations": [],\n  "stats": {\n    "solutions_found": 4\n  },\n'
        '  "pass": true,\n  "elapsed_ms": 0\n}\n',
        "n3-structured": '{\n  "mode": "n3-structured",\n  "candidates_examined": 8,\n'
        '  "violations": [],\n  "stats": {\n    "assignments_with_duplicate_rows": 8\n  },\n'
        '  "pass": true,\n  "elapsed_ms": 0\n}\n',
    }
    for mode, want in pinned.items():
        code, out, _ = run(capsys, "search", "--mode", mode)
        assert code == 0
        assert re.sub(r'"elapsed_ms": \d+\n', '"elapsed_ms": 0\n', out) == want

    code, out, _ = run(capsys, "search", "--mode", "n3-exhaustive", "--stop", str(1 << 16))
    assert code == 0
    cert = json.loads(out)
    assert cert["candidates_examined"] == 1 << 16 and cert["violations"] == []


def test_search_range_errors(capsys):
    for bounds in (
        ["--start", "-1"],
        ["--stop", str((1 << 28) + 1)],
        ["--start", "10", "--stop", "5"],
        ["--start", "7", "--stop", "7"],
    ):
        code, out, err = run(capsys, "search", "--mode", "n3-exhaustive", *bounds)
        assert code == 2 and out == "" and err.startswith("error: sweep range")


@pytest.mark.parametrize("mode", ["n2-unique", "n3-structured"])
@pytest.mark.parametrize(
    "flags, named",
    [
        (["--start", "7"], "--start"),
        (["--stop", "64"], "--stop"),
        (["--workers", "2"], "--workers"),
        (["--workers", "0"], "--workers"),
        (["--stop", "9", "--start", "0", "--workers", "1"], "--start, --stop, --workers"),
    ],
)
def test_search_sweep_flags_need_the_exhaustive_mode(capsys, mode, flags, named):
    # only n3-exhaustive sweeps a range; the other modes refuse its flags
    code, out, err = run(capsys, "search", "--mode", mode, *flags)
    assert code == 2 and out == ""
    assert err == f"error: --mode {mode} takes no {named}\n"


def test_search_negative_workers(capsys):
    for workers in ("-1", "-2"):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--mode", "n3-exhaustive", "--stop", "64", "--workers", workers])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err == f"error: argument --workers: must be 0 (F2RANK_THREADS) or more, got {workers}\n"


def test_cli_import_leaves_multiprocessing_out():
    # only a sweep that starts a child imports it, so verify, iso, construct
    # and a sweep of less than two processes' shares never pay for it
    src = os.path.dirname(os.path.dirname(f2rank.__file__))
    code = (
        "import sys, f2rank.cli, f2rank.search as s\n"
        "s._usable_cpus = lambda: 64\n"
        "stop = (2 * s._BLOCKS_PER_PROCESS - 1) << 18\n"
        "assert s.run_exhaustive_sweep(0, stop, workers=64) == s.sweep_range(0, stop)\n"
        "sys.exit('multiprocessing' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}).returncode == 0


def test_search_workers_env(capsys, monkeypatch):
    monkeypatch.setenv("F2RANK_THREADS", "2")
    code, out, _ = run(capsys, "search", "--mode", "n3-exhaustive", "--stop", str(1 << 15))
    assert code == 0 and json.loads(out)["pass"] is True


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_search_bad_workers_env(capsys, monkeypatch, value):
    monkeypatch.setenv("F2RANK_THREADS", value)
    code, out, err = run(capsys, "search", "--mode", "n3-exhaustive", "--stop", "64")
    assert code == 2 and out == ""
    assert err == f"error: environment F2RANK_THREADS: must be a positive integer, got {value!r}\n"


def test_search_empty_workers_env_means_one(capsys, monkeypatch):
    monkeypatch.setenv("F2RANK_THREADS", "")
    code, out, _ = run(capsys, "search", "--mode", "n3-exhaustive", "--stop", "64")
    assert code == 0 and json.loads(out)["candidates_examined"] == 64


def test_iso_command(tmp_path, capsys):
    a = tmp_path / "a.f2m"
    b = tmp_path / "b.f2m"
    a.write_bytes(linegraph_clique_plus_isolated(6).adj.to_f2mat())
    b.write_bytes(g2_power(2).adj.to_f2mat())
    code, out, _ = run(capsys, "iso", str(a), str(b))
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphic"] is True and len(payload["witness"]) == 16

    c = tmp_path / "c.f2m"
    c.write_bytes(g2_power(1).adj.to_f2mat())
    code, out, _ = run(capsys, "iso", str(a), str(c))
    assert code == 1 and json.loads(out)["isomorphic"] is False


class _Deadline(Exception):
    pass


def test_iso_command_family_file_first(tmp_path, capsys):
    # with the family member first, backtracking alone ran for minutes at
    # order 256; the symplectic route answers within the budget
    g = g2_power(4)
    perm = random.Random(9).sample(range(g.order), g.order)
    a = tmp_path / "a.f2m"
    b = tmp_path / "b.f2m"
    a.write_bytes(g.adj.to_f2mat())
    b.write_bytes(g.adj.conjugate(perm).to_f2mat())

    def expire(signum, frame):
        raise _Deadline("iso took more than 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        code, out, _ = run(capsys, "iso", str(a), str(b))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    witness = json.loads(out)["witness"]
    assert sorted(witness) == list(range(256))
    assert all(
        g.adj.get(i, j) == g.adj.get(perm[witness[i]], perm[witness[j]])
        for i in range(256)
        for j in range(256)
    )


def test_iso_command_order_1024(tmp_path, capsys):
    # one search depth per vertex: a recursive search overflows the stack here
    a = tmp_path / "a.f2m"
    b = tmp_path / "b.f2m"
    a.write_bytes(g2_power(5).adj.to_f2mat())
    b.write_text(a.read_text())
    code, out, _ = run(capsys, "iso", str(a), str(b))
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphic"] is True and sorted(payload["witness"]) == list(range(1024))


def test_convert_round_trip(tmp_path, capsys):
    f2m = tmp_path / "g.f2m"
    g6 = tmp_path / "g.g6"
    back = tmp_path / "back.f2m"
    f2m.write_bytes(g2_power(2).adj.to_f2mat())
    assert run(capsys, "convert", str(f2m), str(g6), "--format", "graph6")[0] == 0
    assert run(capsys, "convert", str(g6), str(back), "--format", "f2mat")[0] == 0
    assert back.read_text() == f2m.read_text()


def test_convert_round_trip_constructed_families(tmp_path, capsys):
    # 4096 vertices is the largest constructed family member
    for g in (g2_power(4), linegraph_clique_plus_isolated(8), g2_power(6)):
        f2m = tmp_path / "in.f2m"
        g6 = tmp_path / "mid.g6"
        back = tmp_path / "out.f2m"
        f2m.write_bytes(g.adj.to_f2mat())
        run(capsys, "convert", str(f2m), str(g6), "--format", "graph6")
        run(capsys, "convert", str(g6), str(back), "--format", "f2mat")
        assert back.read_text() == f2m.read_text()


def _reference_texts(g: Graph) -> dict[str, str]:
    """The f2mat text written row by row and the graph6 line networkx
    writes, made without the program's codecs."""
    n = g.order
    rows = ["".join(str(g.adj.get(i, j)) for j in range(n)) for i in range(n)]
    gx = nx.Graph()
    gx.add_nodes_from(range(n))
    gx.add_edges_from((i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j] == "1")
    return {
        "f2mat": f"f2mat {n} {n}\n" + "".join(row + "\n" for row in rows),
        "graph6": nx.to_graph6_bytes(gx, header=False).decode("ascii"),
    }


def _outputs(tmp_path, argv) -> tuple[bytes, str]:
    """What the command argv(out) writes to the file out, and what argv(None)
    writes to stdout (captured as text, the way the benchmark runs the CLI)."""
    path = tmp_path / "out"
    assert main(argv(str(path))) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv(None)) == 0
    return path.read_bytes(), out.getvalue()


@pytest.mark.parametrize("family, param, build", [
    ("g2pow", 1, g2_power),  # order 4
    ("linegraph-k", 5, linegraph_clique_plus_isolated),  # order 11: rows not whole bytes
    ("odd", 3, extremal_odd_plus_one),  # order 8
    ("g2pow", 3, g2_power),  # order 64
])
@pytest.mark.parametrize("fmt", ["f2mat", "graph6"])
def test_construct_output_matches_reference_text(tmp_path, family, param, build, fmt):
    want = _reference_texts(build(param))[fmt]
    argv = ["construct", "--family", family, "--param", str(param), "--format", fmt]
    file_bytes, stdout = _outputs(tmp_path, lambda out: argv + (["--out", out] if out else []))
    assert file_bytes == want.encode("ascii") and stdout == want


@pytest.mark.parametrize("order", [0, 1, 4, 11, 64])
@pytest.mark.parametrize("source", ["f2mat", "graph6"])
@pytest.mark.parametrize("fmt", ["f2mat", "graph6"])
def test_convert_output_matches_reference_text(tmp_path, order, source, fmt):
    texts = _reference_texts(random_graph(random.Random(order), order))
    src = tmp_path / "in"
    src.write_text(texts[source])
    file_bytes, stdout = _outputs(tmp_path, lambda out: ["convert", str(src), *([out] if out else []), "--format", fmt])
    assert file_bytes == texts[fmt].encode("ascii") and stdout == texts[fmt]


@pytest.mark.parametrize("block", [1, 7])
def test_stdout_written_in_blocks(tmp_path, monkeypatch, block):
    # stdout gets the output decoded a block at a time: the text is the
    # same for any block size
    from f2rank import cli

    monkeypatch.setattr(cli, "_STDOUT_BYTES", block)
    texts = _reference_texts(random_graph(random.Random(11), 11))
    src = tmp_path / "in.f2m"
    src.write_text(texts["f2mat"])
    for fmt in ("f2mat", "graph6"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["convert", str(src), "--format", fmt]) == 0
        assert out.getvalue() == texts[fmt]


def test_cli_determinism(tmp_path, capsys):
    path = tmp_path / "g.f2m"
    path.write_bytes(g2_power(2).adj.to_f2mat())
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
    # bench was retired in favour of perfbench
    for argv in (["bogus-command"], ["bench", "--op", "rank", "--size", "64"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
