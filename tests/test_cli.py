import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*args, env=None):
    proc = subprocess.run([sys.executable, "-m", "dyk3.cli", *args],
                          capture_output=True, text=True, timeout=600,
                          env=None if env is None else {**os.environ, **env})
    return proc


def jsonl(stdout):
    return [json.loads(line) for line in stdout.strip().splitlines()]


def test_lattice_disc_group():
    p = run_cli("lattice", "--fixture", "lambda24", "--op", "disc-group")
    assert p.returncode == 0
    recs = jsonl(p.stdout)
    assert recs[-1]["disc_group"] == "2,2,6"
    assert "fixture_provenance" in recs[-1]
    assert recs[-1]["version"]


def test_weil_report_ends_with_bound():
    p = run_cli("weil", "--surface", "drell-yan", "--primes", "31,71")
    assert p.returncode == 0
    recs = jsonl(p.stdout)
    assert recs[-1]["picard_bound"] == 19
    assert recs[0]["rho"] == 20
    assert recs[0]["square_class"] == 3
    assert recs[1]["square_class"] == 35


def test_count_matches_prediction():
    p = run_cli("count", "--surface", "drell-yan", "-p", "31", "-n", "1")
    assert p.returncode == 0
    rec = jsonl(p.stdout)[0]
    assert rec["count_smooth"] == 1536
    assert rec["agree"] is True


def test_si_verify_prime():
    p = run_cli("si-verify", "--prime", "31", "--ext", "1", "2")
    assert p.returncode == 0
    recs = jsonl(p.stdout)
    assert all(r["verdict"] for r in recs)
    assert recs[0]["prediction"] == 1536
    assert recs[1]["prediction"] == 942936


def test_si_verify_system():
    p = run_cli("si-verify", "--system")
    assert p.returncode == 0
    assert jsonl(p.stdout)[0]["ok"] is True


def test_tate_table():
    p = run_cli("tate", "--model", "e2")
    assert p.returncode == 0
    recs = jsonl(p.stdout)
    assert recs[-1]["total_vdelta"] == 24
    kinds = sorted(r["kodaira"] for r in recs[:-1])
    assert "I10" in kinds and kinds.count("I2") == 3


def test_height_report():
    p = run_cli("height", "--model", "e2")
    assert p.returncode == 0
    rec = jsonl(p.stdout)[0]
    assert rec["height_P3"] == "3/20"
    assert rec["disc_NS"] == "24"
    assert rec["torsion_two_divisible"] is False


def test_ss_scan_csv():
    p = run_cli("--format", "csv", "ss-scan", "--from", "7", "--to", "400")
    assert p.returncode == 0
    lines = p.stdout.strip().splitlines()
    assert lines[0] == "prime,supersingular,witness_root"
    primes = [int(l.split(",")[0]) for l in lines[1:]]
    assert primes == [13, 29, 41, 113, 337]


def test_kodaira_partial():
    p = run_cli("kodaira", "--fixture", "lemma_partial", "--max-n", "10")
    assert p.returncode == 0
    rec = jsonl(p.stdout)[0]
    assert rec["by_type"]["I10"] >= 1
    assert rec["by_type"]["E8"] >= 2


# The whole record of `dyk3 kodaira --fixture curves34 --group`, as the
# census printed it before it was counted off arrays.
KODAIRA_CURVES34_GROUP = {
    "by_type": {"D10": 3302, "D12": 1416, "D14": 896, "D16": 72, "D4": 419,
                "D5": 2010, "D6": 3304, "D7": 3880, "D8": 3357, "D9": 1604,
                "E6": 6388, "E7": 26780, "E8": 47480, "I10": 1046, "I11": 416,
                "I12": 352, "I13": 188, "I14": 328, "I16": 158, "I2": 13,
                "I3": 4, "I4": 114, "I5": 116, "I6": 319, "I7": 624, "I8": 806,
                "I9": 464},
    "fibrations": 104600, "fibres": 105856, "fixture": "curves34",
    "fixture_provenance": (
        "derived (computed from the printed curve equations: sheet matching "
        "at intersection points and exact series analysis of the resolution "
        "at the five singular points; certified against the printed census "
        "counts and lattice invariants)"),
    "op": "kodaira", "orbits": 29111, "orbits_with_section": 27807,
    "orbits_with_section_in_set": 24270, "tool": "dyk3", "version": "0.1.0",
    "with_section_in_set": 86416}


def test_kodaira_census_record_in_process(capsys):
    # in-process through cli.main, sparing a second interpreter
    from dyk3.cli import main
    assert main(["kodaira", "--fixture", "curves34", "--group"]) == 0
    assert capsys.readouterr().out == \
        json.dumps(KODAIRA_CURVES34_GROUP, sort_keys=True) + "\n"
    assert main(["kodaira", "--fixture", "lemma_partial", "--group"]) == 3
    assert jsonl(capsys.readouterr().out) == [
        {"op": "kodaira", "error": "generator does not preserve the Gram"}]


# The whole record of `dyk3 height --model e2`, as it was printed before
# each surface kept one critical point per place.
HEIGHT_E2 = {
    "disc_NS": "24", "disc_triv": -640, "fixture_provenance": "paper-text",
    "height_P3": "3/20", "height_T": "0", "min_positive_grid_height": "1/10",
    "model": "e2", "op": "height", "squarefree_part_coeffs": ["0", "-1", "1", "1"],
    "tool": "dyk3", "torsion_two_divisible": False, "version": "0.1.0"}


def test_height_record_in_process(capsys):
    from dyk3.cli import main
    assert main(["height", "--model", "e2"]) == 0
    assert capsys.readouterr().out == json.dumps(HEIGHT_E2, sort_keys=True) + "\n"


# The whole records of `dyk3 count`, as they were printed while the count
# kernel ran in float64 at every q.  At p = 1847 the sextic's sums run in
# float64 and the fibration's in float32.
COUNT_RECORDS = {
    "-p 71 -n 1 2": [
        '{"agree": true, "count_fibration": 6464, "count_raw": 5470,'
         ' "count_smooth": 6464, "fixture_provenance": "paper-text", "n": 1,'
         ' "op": "count", "p": 71, "q": 71, "tool": "dyk3", "version": "0.1.0"}',
        '{"agree": true, "count_fibration": 25502424, "count_raw": 25431850,'
         ' "count_smooth": 25502424, "fixture_provenance": "paper-text", "n": 2,'
         ' "op": "count", "p": 71, "q": 5041, "tool": "dyk3", "version": "0.1.0"}',
    ],
    "-p 7 -n 3 4": [
        '{"agree": true, "count_fibration": 122474, "count_raw": 117672,'
         ' "count_smooth": 122474, "fixture_provenance": "paper-text", "n": 3,'
         ' "op": "count", "p": 7, "q": 343, "tool": "dyk3", "version": "0.1.0"}',
        '{"agree": true, "count_fibration": 5809176, "count_raw": 5775562,'
         ' "count_smooth": 5809176, "fixture_provenance": "paper-text", "n": 4,'
         ' "op": "count", "p": 7, "q": 2401, "tool": "dyk3", "version": "0.1.0"}',
    ],
    "-p 1847 -n 1": [
        '{"agree": true, "count_fibration": 3441482, "count_raw": 3415624,'
         ' "count_smooth": 3441482, "fixture_provenance": "paper-text", "n": 1,'
         ' "op": "count", "p": 1847, "q": 1847, "tool": "dyk3",'
         ' "version": "0.1.0"}',
    ],
}


@pytest.mark.parametrize("args", list(COUNT_RECORDS))
def test_count_records_in_process(args, capsys):
    from dyk3.cli import main
    assert main(["count", *args.split()]) == 0
    assert capsys.readouterr().out.splitlines() == COUNT_RECORDS[args]


def test_kodaira_mirror_comes_from_the_fixture(tmp_path):
    # the mirror permutation is the fixture's: picard_fixture, which
    # derives the matrices, and the tate, models and siverify it imports
    # stay unloaded
    (tmp_path / "pair.gram").write_text(
        "# provenance: test\n# mirror-swap: all\nL1 Lt1\nL1 -2 2\nLt1 2 -2\n")
    code = ("import sys; from dyk3.cli import main; "
            "main(['kodaira', '--fixture', 'pair', '--group']); "
            "print(' '.join(m for m in sys.modules if m.startswith('dyk3.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=600, env={**os.environ, "DYK3_FIXTURE_DIR": str(tmp_path)})
    assert proc.returncode == 0, proc.stderr
    record, modules = proc.stdout.splitlines()
    assert json.loads(record)["orbits"] == 1
    assert not {"dyk3.picard_fixture", "dyk3.tate", "dyk3.models",
                "dyk3.siverify"} & set(modules.split())


@pytest.mark.parametrize("text", [
    "a b\na -3 1\nb 1 -2\n",
    "# galois-swap: a z\na b\na -2 1\nb 1 -2\n",
    "# galois-swap: a b\na b c\na -2 1 0\nb 1 -2 1\nc 0 1 -2\n",
    "# mirror-swap: all\nL1 C1\nL1 -2 1\nC1 1 -2\n",
    "# mirror-swap: none\nL1 Lt1\nL1 -2 2\nLt1 2 -2\n",
], ids=["diagonal", "unknown-label", "not-a-symmetry", "unknown-mirror",
        "unnamed-mirror-rule"])
def test_kodaira_malformed_gram_exit_code(tmp_path, text):
    (tmp_path / "bad.gram").write_text("# provenance: test\n" + text)
    p = run_cli("kodaira", "--fixture", "bad", "--group",
                env={"DYK3_FIXTURE_DIR": str(tmp_path)})
    assert p.returncode == 3, p.stderr
    rec = jsonl(p.stdout)[0]
    assert rec["op"] == "kodaira" and rec["error"]


def test_kodaira_max_n_is_a_usage_error():
    assert run_cli("kodaira", "--fixture", "lemma_partial",
                   "--max-n", "1").returncode == 2


def test_unknown_fixture_exit_code():
    p = run_cli("lattice", "--fixture", "nonexistent", "--op", "rank-det")
    assert p.returncode == 3


def test_unknown_subcommand_exit_code():
    p = run_cli("frobnicate")
    assert p.returncode == 2


def test_determinism():
    a = run_cli("count", "-p", "11", "-n", "1", "2").stdout
    b = run_cli("count", "-p", "11", "-n", "1", "2").stdout
    assert a == b


def test_out_file(tmp_path):
    dest = tmp_path / "report.jsonl"
    p = run_cli("--out", str(dest), "height", "--model", "e2")
    assert p.returncode == 0
    assert json.loads(dest.read_text().splitlines()[0])["height_P3"] == "3/20"


def run_main(argv, capsys):
    """dyk3's main in this process: (exit code, stdout, stderr).  Any
    exception other than argparse's SystemExit fails the calling test."""
    from dyk3.cli import main
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


FIXTURE_SUBCOMMANDS = {
    "count": ["count", "-p", "7"],
    "weil": ["weil", "--primes", "31,71"],
    "ss-scan": ["ss-scan", "--to", "50"],
    "si-verify": ["si-verify", "--prime", "31"],
}


@pytest.mark.parametrize("damage", ["missing", "truncated"])
@pytest.mark.parametrize("cmd", sorted(FIXTURE_SUBCOMMANDS))
def test_fixture_failure_exit_code(tmp_path, monkeypatch, capsys, cmd, damage):
    if damage == "truncated":
        from importlib import resources
        for name in ("drell_yan_surface.json", "tower_constants.json"):
            text = resources.files("dyk3").joinpath("fixtures", name).read_text()
            (tmp_path / name).write_text(text[: len(text) // 2])
    monkeypatch.setenv("DYK3_FIXTURE_DIR", str(tmp_path))
    code, out, _ = run_main(FIXTURE_SUBCOMMANDS[cmd], capsys)
    assert code == 3
    rec = jsonl(out)[0]
    assert rec["op"] == cmd and rec["error"]


@pytest.mark.parametrize("argv", [
    "count -p 9", "count -p 5", "count -p 7 -n 5", "weil --primes 5,7",
    "si-verify --prime 7", "si-verify --prime 31 --ext 3",
    "tate --model e9", "height --model e1",
    "count -p 1000003 -n 1", "count -p 37 -n 3", "weil --primes 31,191",
    "si-verify --prime 191 --ext 1 2",
])
def test_bad_argument_exit_code(capsys, argv):
    code, out, err = run_main(argv.split(), capsys)
    assert code == 2
    assert out == "" and "error:" in err


def test_field_size_bound_admits_every_count_made():
    # 31^3 is the largest q the tests, the README and the benchmark count at
    from dyk3.cli import MAX_Q
    assert 31 ** 3 <= MAX_Q < 37 ** 3 and f"{MAX_Q:,}" in README.read_text()


def test_readme_command_lines_parse():
    from dyk3.cli import build_parser
    block = README.read_text().split("## Command line")[1].split("```")[1]
    lines = [line.split("#")[0].split() for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["dyk3"]]
    assert len(commands) >= 12
    for argv in commands:
        build_parser().parse_args(argv)
