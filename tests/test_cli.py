import hashlib
import json
import os
import subprocess
import sys

import pytest

import qtkostka
from qtkostka import cli, macdonald
from qtkostka.cli import dispatch
from qtkostka.errors import ConsistencyError
from qtkostka.haglund import scan
from qtkostka.macdonald import MATRIX_FIELDS, read_matrix


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kcoeff_json(capsys):
    code, out, _ = run_cli(capsys, "kcoeff", "--lambda", "2", "--mu", "1,1")
    assert code == 0
    obj = json.loads(out)
    assert obj["lambda"] == [2] and obj["mu"] == [1, 1]
    # (1-q)(t-q) = t - q - qt + q^2
    assert obj["k"] == [[0, 1, "1"], [1, 0, "-1"], [1, 1, "-1"], [2, 0, "1"]]


def test_kcoeff_deterministic(capsys):
    _, first, _ = run_cli(capsys, "kcoeff", "--lambda", "3,1", "--mu", "2,1,1")
    _, second, _ = run_cli(capsys, "kcoeff", "--lambda", "3,1", "--mu", "2,1,1")
    assert first == second


def test_matrix_json(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "--cache-dir",
        str(tmp_path),
        "matrix",
        "--n",
        "2",
        "--which",
        "k2",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 2
    assert obj["index"] == [[2], [1, 1]]
    # off-diagonal entry (t-q)/(1-qt)
    assert obj["entries"][0][1] == {
        "num": [[0, 1, "1"], [1, 0, "-1"]],
        "den": [[1, 1, 1]],
    }
    assert (tmp_path / "k2_n2.json").exists()


# SHA-256 of `matrix --n N --which W` stdout.  The num/den form of an entry
# is not canonical, so this pins the arithmetic path, not just the values;
# n = 6 and 7 are where the greedy-cancellation forms differ most between
# paths.
MATRIX_SHA256 = {
    (5, "k"): "469513909c84afd8e681eb69d2f623c37df3c4cf97f14f28a6553cf571fdee27",
    (5, "k1"): "4eafe79129d99ca7c4ec8e3c623ab6cf1e553ac60570319310cea855b5443966",
    (5, "k1inv"): "637ed1a0e4df73ea9bec3280dbaf088a2e2dc094a16a9c990fa3f3bb9b0f4017",
    (5, "k2"): "d422404e10937077cb03d24326079a34244c23e3dbc39c9cf1554b62b62c7641",
    (5, "k2inv"): "a49bea9f659620061356011f1a9f52c434a1043d9a19401de981894da555ea17",
    (6, "k"): "f9ec7a27de801d4a38f92dddb5eeff220fdc2c56c927b8a0d7853c4c7e6b4d03",
    (6, "k1"): "023f9bd639470339e2fc2564546f49885b3ba4789ca14d7769bcf17608845ee7",
    (6, "k1inv"): "9906355f2ac9d54f68c6a722244aeaa257e381e6c25375d453fbc779ac7bef97",
    (6, "k2"): "3e7242153ab9fab7760f5edddfee339bd757475d87cefaf39aba79bddb8d6386",
    (6, "k2inv"): "9251102c109029732171752f8f7f1d8f4e5d9cefb357bd85e40e7c2dd9c71c80",
    (7, "k"): "88cddec4b343df9bb69d60c5ce6b98efeaecfe746978af21cb32c96c040ea8b7",
    (7, "k1"): "c03faedeab8ee3e5223ed81300ed32c6a143a3cc7ee2d8623adb6073d84f8df1",
    (7, "k1inv"): "bcdcb128b669ff5f1627bd51b4d2706414a52d9e75199a232d41e26ef8320da1",
    (7, "k2"): "7db2c8b28b44b92a0d3fa9aac28a0daff802275cb54905f7f02b665b8b1b2963",
    (7, "k2inv"): "6cf77aa5222fcaf24e8b26db58e8cea68348bf11ae6bd55b28b49b77f4645707",
}


@pytest.mark.parametrize("n, which", sorted(MATRIX_SHA256))
def test_matrix_golden(capsys, tmp_path, n, which):
    code, out, _ = run_cli(
        capsys, "--cache-dir", str(tmp_path), "matrix", "--n", str(n), "--which", which
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MATRIX_SHA256[n, which]


def _matrix_call(capsys, cache_dir, n, which):
    return run_cli(
        capsys, "--cache-dir", str(cache_dir), "matrix", "--n", str(n), "--which", which
    )


def _cold_process(monkeypatch):
    """Forget every bundle in memory, as a fresh process has none, and fail
    any attempt to compute one."""

    def no_compute(n):
        raise AssertionError(f"degree {n} computed instead of read")

    monkeypatch.setattr(macdonald, "_memory_cache", {})
    monkeypatch.setattr(macdonald, "_compute_matrices", no_compute)


def test_warm_matrix_call_reads_only_its_own_file(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(macdonald, "_memory_cache", {})
    fresh = {w: _matrix_call(capsys, tmp_path, 3, w) for w in MATRIX_FIELDS}
    _cold_process(monkeypatch)
    for which in MATRIX_FIELDS:
        assert _matrix_call(capsys, tmp_path, 3, which) == fresh[which]
    # one file is no bundle, so nothing is kept in memory
    assert macdonald._memory_cache == {}
    # a damaged sibling is neither read nor repaired by a call for k
    (tmp_path / "k1_n3.json").write_text("{")
    assert _matrix_call(capsys, tmp_path, 3, "k") == fresh["k"]
    assert (tmp_path / "k1_n3.json").read_text() == "{"


def test_damaged_requested_file_rebuilds_all_five(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(macdonald, "_memory_cache", {})
    fresh = _matrix_call(capsys, tmp_path, 3, "k2")
    texts = {p.name: p.read_text() for p in tmp_path.iterdir()}
    monkeypatch.setattr(macdonald, "_memory_cache", {})
    built = []
    compute = macdonald._compute_matrices
    monkeypatch.setattr(
        macdonald, "_compute_matrices", lambda n: built.append(n) or compute(n)
    )
    (tmp_path / "k1_n3.json").write_text("{")
    (tmp_path / "k2_n3.json").write_text(texts["k2_n3.json"][:40])
    assert _matrix_call(capsys, tmp_path, 3, "k2") == fresh
    assert built == [3]
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == texts


def test_deeply_nested_cache_file_is_rebuilt(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(macdonald, "_memory_cache", {})
    fresh = _matrix_call(capsys, tmp_path, 2, "k")
    good = (tmp_path / "k_n2.json").read_text()
    monkeypatch.setattr(macdonald, "_memory_cache", {})
    # too deep for the JSON parser's recursion limit
    (tmp_path / "k_n2.json").write_text("[" * 100000)
    assert _matrix_call(capsys, tmp_path, 2, "k") == fresh
    assert (tmp_path / "k_n2.json").read_text() == good


def _set(field, i, j, value):
    """A damage that sets entry[field][i][j] in the k1 entry (2)/(1,1),
    stored as num [[0,0,"1"], [0,1,"-1"], [1,0,"1"], [1,1,"-1"]] over
    den [[1,1,1]]."""

    def damage(entry):
        entry[field][i][j] = value

    return damage


@pytest.mark.parametrize(
    "damage",
    [
        _set("den", 0, 0, 1.0),
        _set("den", 0, 1, True),
        _set("den", 0, 2, 1.0),
        lambda entry: entry["den"].append([1, 1, 1]),
        lambda entry: entry.pop("den"),
        _set("num", 1, 1, 0.5),
        _set("num", 2, 0, False),
        _set("num", 0, 2, 1),
        lambda entry: entry["num"].append([0, 0, "2"]),
        lambda entry: entry["num"].append([0, 0, "1"]),
    ],
    ids=[
        "den_float_exponent", "den_bool_exponent", "den_float_multiplicity",
        "den_repeated_factor", "den_missing", "num_float_exponent", "num_bool_exponent",
        "num_int_coefficient", "num_repeated_term", "num_repeated_equal_term",
    ],
)
def test_type_damaged_cache_file_is_rejected_and_rewritten(
    capsys, tmp_path, monkeypatch, damage
):
    # the reader takes only what to_obj writes: int exponents and
    # multiplicities, str coefficients, each exponent pair once
    monkeypatch.setattr(macdonald, "_memory_cache", {})
    fresh = _matrix_call(capsys, tmp_path, 2, "k1")
    path = tmp_path / "k1_n2.json"
    good = path.read_text()
    obj = json.loads(good)
    damage(obj["entries"][0][1])
    path.write_text(json.dumps(obj))
    monkeypatch.setattr(macdonald, "_memory_cache", {})
    assert _matrix_call(capsys, tmp_path, 2, "k1") == fresh
    assert path.read_text() == good


def test_cache_file_with_a_bool_degree_is_rewritten(capsys, tmp_path, monkeypatch):
    # true == 1, so the file passes for degree 1 until its type is read
    monkeypatch.setattr(macdonald, "_memory_cache", {})
    fresh = _matrix_call(capsys, tmp_path, 1, "k1")
    path = tmp_path / "k1_n1.json"
    good = path.read_text()
    path.write_text(good.replace('"n": 1', '"n": true'))
    monkeypatch.setattr(macdonald, "_memory_cache", {})
    assert _matrix_call(capsys, tmp_path, 1, "k1") == fresh
    assert path.read_text() == good


def test_matrix_golden_from_disk(capsys, tmp_path, monkeypatch):
    # the path every warm call takes: one cache file, no bundle in memory
    read_matrix(6, "k", str(tmp_path))
    _cold_process(monkeypatch)
    for which in MATRIX_FIELDS:
        code, out, _ = _matrix_call(capsys, tmp_path, 6, which)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == MATRIX_SHA256[6, which]


def test_matrix_latex(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "--format",
        "latex",
        "--cache-dir",
        str(tmp_path),
        "matrix",
        "--n",
        "1",
        "--which",
        "k1",
    )
    assert code == 0
    assert "tabular" in out


def test_reduce_worked_example(capsys):
    code, out, _ = run_cli(
        capsys, "reduce", "--lambda", "5,3,3", "--mu", "4,4,1,1,1"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "row_split"
    kids = obj["children"]
    assert kids[0]["lambda"] == [2] and kids[0]["mu"] == [1, 1]
    assert kids[1]["lambda"] == [3] and kids[1]["mu"] == [1, 1, 1]
    tags = {tuple(c["lambda"]): c["tag"] for c in obj["leaf_classes"]}
    assert tags[(2,)] == "row_case" and tags[(3,)] == "row_case"


def test_haglund_verdict(capsys):
    code, out, _ = run_cli(
        capsys, "haglund", "--lambda", "2", "--mu", "1,1", "--k", "2"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["is_nonnegative"] is True
    # t + t^2
    assert obj["quotient"] == [[0, 1, "1"], [0, 2, "1"]]


def test_haglund_oversized_k_is_a_domain_error(capsys):
    code, out, err = run_cli(
        capsys, "haglund", "--lambda", "2", "--mu", "1,1",
        "--k", "10000000000000000000",
    )
    assert code == 1 and out == ""
    assert err.startswith("domain error: q := t^10000000000000000000 spans ")
    assert err.count("\n") == 1


def test_scan_to_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "scan", "--max-n", "2", "--max-k", "2", "--out", str(out_file)
    )
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["summary"]["violations"] == 0
    assert json.loads(out)["summary"] == report["summary"]


def test_scan_report_bytes(capsys, tmp_path):
    # the report is scan().to_obj() as indented, key-sorted JSON plus a
    # newline, byte for byte, in a file and on stdout alike
    want = json.dumps(scan(4, 4).to_obj(), indent=2, sort_keys=True) + "\n"
    out_file = tmp_path / "report.json"
    argv = ["scan", "--max-n", "4", "--max-k", "4"]
    code, _, _ = run_cli(capsys, *argv, "--out", str(out_file))
    assert code == 0
    assert out_file.read_bytes() == want.encode()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == want


def test_oracle_verify(capsys):
    code, out, _ = run_cli(capsys, "oracle-verify", "--max-n", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_passed"] is True
    assert [d["n"] for d in obj["degrees"]] == [1, 2]


@pytest.mark.parametrize("max_n", ["0", "-2"])
def test_oracle_verify_checks_at_least_one_degree(capsys, max_n):
    code, out, err = run_cli(capsys, "oracle-verify", "--max-n", max_n)
    assert code == 1 and out == ""
    assert err == f"domain error: --max-n must be at least 1, got {max_n}\n"


def test_fstat(capsys):
    code, out, _ = run_cli(capsys, "fstat", "--mu", "2,1")
    assert code == 0
    obj = json.loads(out)
    # f(2,1) = 2 + qt
    assert obj["f"] == [[0, 0, "2"], [1, 1, "1"]]


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "kcoeff", "--lambda", "2", "--mu", "1")
    assert code == 0  # size mismatch yields the zero polynomial, not an error
    code, _, err = run_cli(
        capsys, "reduce", "--lambda", "2,2", "--mu", "3,1"
    )
    assert code == 1
    assert "domain error" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        dispatch(["kcoeff", "--lambda", "2"])
    assert info.value.code == 64
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        dispatch(["nonsense"])
    assert info.value.code == 64
    capsys.readouterr()


def test_bad_partition_argument(capsys):
    with pytest.raises(SystemExit) as info:
        dispatch(["kcoeff", "--lambda", "1,2", "--mu", "1,1,1"])
    assert info.value.code == 64
    capsys.readouterr()


@pytest.mark.parametrize(
    "case", ["cache_dir_is_a_file", "cache_file_is_a_dir", "out_dir_missing"]
)
def test_unusable_path_is_a_usage_error(capsys, tmp_path, case):
    plain = tmp_path / "plain"
    plain.write_text("")
    if case == "cache_dir_is_a_file":
        path = str(plain)
        argv = ["--cache-dir", path, "matrix", "--n", "2", "--which", "k"]
    elif case == "cache_file_is_a_dir":
        (tmp_path / "k1_n2.json").mkdir()
        path = str(tmp_path / "k1_n2.json")
        argv = ["--cache-dir", str(tmp_path), "matrix", "--n", "2", "--which", "k"]
    else:
        path = str(tmp_path / "missing" / "report.json")
        argv = ["scan", "--max-n", "2", "--max-k", "1", "--out", path]
    code, _, err = run_cli(capsys, *argv)
    assert code == 64
    assert err.startswith(f"qtkostka: error: {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unusable_cache_dir_fails_before_computing(capsys, tmp_path, monkeypatch):
    def no_compute(n):
        raise AssertionError("matrices computed before --cache-dir was checked")

    monkeypatch.setattr(macdonald, "_compute_matrices", no_compute)
    monkeypatch.setattr(macdonald, "_memory_cache", {})
    plain = tmp_path / "plain"
    plain.write_text("")
    code, out, err = run_cli(
        capsys, "matrix", "--n", "7", "--which", "k", "--cache-dir", str(plain)
    )
    assert code == 64 and out == ""
    assert err.startswith(f"qtkostka: error: {plain}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


_COMMAND_ARGV = {
    "haglund": ["haglund", "--lambda", "2", "--mu", "1,1", "--k", "2"],
    "scan": ["scan", "--max-n", "2", "--max-k", "1"],
    "reduce": ["reduce", "--lambda", "2", "--mu", "1,1"],
    "oracle-verify": ["oracle-verify", "--max-n", "1"],
}


@pytest.mark.parametrize(
    "command, fmt",
    [
        ("haglund", "latex"),
        ("scan", "pretty"),
        ("scan", "latex"),
        ("reduce", "latex"),
        ("oracle-verify", "latex"),
    ],
)
@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_unrendered_format_is_a_usage_error(capsys, command, fmt, before):
    flag = ["--format", fmt]
    argv = _COMMAND_ARGV[command]
    with pytest.raises(SystemExit) as info:
        dispatch(flag + argv if before else argv + flag)
    assert info.value.code == 64
    _, err = capsys.readouterr()
    assert f"error: {command} renders --format " in err
    assert err.endswith(f", not {fmt}\n")


@pytest.mark.parametrize("case", ["dir_missing", "out_is_a_dir"])
def test_unusable_scan_out_fails_before_scanning(
    capsys, tmp_path, monkeypatch, case
):
    def no_scan(*args, **kwargs):
        raise AssertionError("scan ran before --out was checked")

    monkeypatch.setattr(cli, "scan", no_scan)
    target = tmp_path / "missing" / "r.json" if case == "dir_missing" else tmp_path
    path = str(target)
    code, out, err = run_cli(
        capsys, "scan", "--max-n", "8", "--max-k", "4", "--out", path
    )
    assert code == 64 and out == ""
    assert err.startswith(f"qtkostka: error: {path}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_negative_jobs_is_a_domain_error(capsys, monkeypatch):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    code, out, err = run_cli(
        capsys, "--jobs", "-1", "scan", "--max-n", "6", "--max-k", "2"
    )
    assert code == 1 and out == ""
    assert err == "domain error: jobs must be positive, or 0 for all cores; got -1\n"


def test_failed_scan_keeps_existing_report(capsys, tmp_path, monkeypatch):
    def failing_scan(*args, **kwargs):
        raise ConsistencyError("scan failed part-way")

    report = tmp_path / "report.json"
    report.write_text('{"old": true}\n')
    monkeypatch.setattr(cli, "scan", failing_scan)
    code, _, err = run_cli(
        capsys, "scan", "--max-n", "2", "--max-k", "1", "--out", str(report)
    )
    assert code == 2 and "scan failed part-way" in err
    assert report.read_text() == '{"old": true}\n'
    assert os.listdir(tmp_path) == ["report.json"]


def test_empty_partition_argument(capsys):
    code, out, _ = run_cli(capsys, "kcoeff", "--lambda", "", "--mu", "")
    assert code == 0
    assert json.loads(out)["k"] == [[0, 0, "1"]]


# Run the CLI in a fresh interpreter and report which of the modules it
# must not load are new since start-up; an in-process check would see
# whatever the test session imported.  dataclasses pulls in inspect, ast
# and dis, which every call would pay for; fractions pulls in decimal,
# and only the oracle's power-sum inverse needs it.
_IMPORT_PROBE = (
    "import sys; before = set(sys.modules); "
    "from qtkostka.cli import dispatch; code = dispatch(sys.argv[1:]); "
    "new = set(sys.modules) - before; "
    "banned = {'sympy', 'dataclasses', 'inspect'}; "
    "banned |= set() if 'oracle-verify' in sys.argv else {'fractions'}; "
    "print(sorted(new & banned), file=sys.stderr); "
    "sys.exit(code)"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["fstat", "--mu", "3,2,1"],
        ["kcoeff", "--lambda", "4,2", "--mu", "2,2,1,1"],
        ["haglund", "--lambda", "3,2,1", "--mu", "2,2,1,1", "--k", "2"],
        ["reduce", "--lambda", "5,3,3", "--mu", "4,4,1,1,1"],
        ["matrix", "--n", "3", "--which", "k2"],
        ["--format", "pretty", "oracle-verify", "--max-n", "2"],
    ],
    ids=["fstat", "kcoeff", "haglund", "reduce", "matrix", "oracle-verify"],
)
def test_no_command_loads_sympy(tmp_path, argv):
    read_matrix(3, "k", str(tmp_path))  # the matrix call reads it
    src = os.path.dirname(os.path.dirname(qtkostka.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, "--cache-dir", str(tmp_path), *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip().splitlines()[-1] == "[]"
    if "oracle-verify" in argv:
        assert proc.stdout.splitlines()[-1] == "all degrees PASS"
