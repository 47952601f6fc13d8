"""CLI: outputs, exit codes, cache behavior, determinism."""

import hashlib
import json
import subprocess
import sys

import pytest


def run_cli(*args, cache=None, timeout=None):
    cmd = [sys.executable, "-m", "klext.cli"]
    if cache is not None:
        cmd += ["--cache-dir", str(cache)]
    cmd += list(args)
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)


def test_info_json():
    res = run_cli("--format", "json", "info", "A", "2")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["h"] == 3
    assert data["weyl_order"] == 6
    assert data["num_roots"] == 6
    assert data["torsion_exponent"] == 3


def test_info_invalid_exits_2():
    res = run_cli("info", "Z", "4")
    assert res.returncode == 2
    assert "type" in res.stderr
    res = run_cli("info", "E", "5")
    assert res.returncode == 2
    assert "rank" in res.stderr


def test_bounds_values():
    res = run_cli("--format", "json", "bounds", "A", "1", "--p", "2", "--n", "1")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    vals = {r["constant"]: r["formula_value"] for r in data["reports"]}
    assert vals["mu_bound"] == 4
    assert vals["ext1_bound"] == 4
    assert vals["fixed_prime_ext1_bound"] == 4
    assert vals["frobenius_shift"] == 2


def test_generic_shift_and_isogeny():
    res = run_cli("--format", "json", "generic-shift", "A", "2", "--p", "3", "--n", "2")
    assert json.loads(res.stdout)["shift"] == 3
    res = run_cli("--format", "json", "isogeny-map", "C", "3", "--weight", "2,0,1")
    assert json.loads(res.stdout)["image"] == [1, 0, 1]
    res = run_cli("isogeny-map", "B", "3", "--weight", "0,0,0")
    assert res.returncode == 2


def test_char_and_tensor():
    res = run_cli("--format", "json", "char", "A", "2", "--weight", "1,0")
    data = json.loads(res.stdout)
    assert data["dimension"] == 3
    res = run_cli("--format", "json", "tensor", "A", "1", "--left", "1", "--right", "1")
    data = json.loads(res.stdout)
    assert data["components"] == {"0": 1, "2": 1}
    assert data["total_length"] == 2


def test_kl_and_sums(tmp_path):
    res = run_cli(
        "--format", "json", "kl", "A", "1", "--cutoff", "12", "--x", "0", "--y", "5",
        cache=tmp_path,
    )
    data = json.loads(res.stdout)
    assert data["polynomial_coeffs"] == {"0": 1}
    res = run_cli(
        "--format", "json", "mu-sum", "A", "1", "--cutoff", "12", "--l", "3",
        "--x", "4", cache=tmp_path,
    )
    data = json.loads(res.stdout)
    assert data["sum"] == 2 and data["status"] == "exact"
    res = run_cli(
        "--format", "json", "klsum", "A", "1", "--cutoff", "12", "--y", "8",
        "--m", "0", cache=tmp_path,
    )
    data = json.loads(res.stdout)
    assert data["status"] == "exact"


def test_ext_and_pim(tmp_path):
    res = run_cli(
        "--format", "json", "ext1", "A", "1", "--cutoff", "16", "--l", "3",
        "--lam", "4", "--nu", "0", cache=tmp_path,
    )
    assert json.loads(res.stdout)["value"] == 1
    res = run_cli(
        "--format", "json", "ext1", "A", "1", "--cutoff", "16", "--l", "3",
        "--lam", "2", "--nu", "0", cache=tmp_path,
    )
    data = json.loads(res.stdout)
    assert data["singular"] and data["stabilizer_order"] == 2
    res = run_cli(
        "--format", "json", "pim", "A", "1", "--cutoff", "16", "--l", "5",
        "--lambda0", "2", cache=tmp_path,
    )
    data = json.loads(res.stdout)
    assert data["total_length"] == 3 and data["highest_weight_check"]


def test_pim_non_dominant_exits_2():
    res = run_cli("pim", "A", "1", "--cutoff", "16", "--l", "5", "--lambda0=-2")
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == "error: (-2,) is not dominant\n"


def test_ext1_above_cutoff():
    args = ("ext1", "A", "1", "--cutoff", "4", "--l", "3", "--lam", "40")
    res = run_cli(*args, "--nu", "0")
    assert res.returncode == 1
    assert res.stderr.strip().splitlines()[-1] == (
        "error: element of length 14 outside slice; enlarge cutoff to at least 14")
    res = run_cli(*args, "--nu", "1")  # unlinked: 0 whatever the cutoff
    assert res.returncode == 0 and "value: 0" in res.stdout.splitlines()


def test_decomp_csv(tmp_path):
    res = run_cli(
        "--format", "csv", "decomp", "A", "1", "--cutoff", "16", "--l", "3",
        "--seed", "0", "--bound", "6", cache=tmp_path,
    )
    lines = res.stdout.strip().splitlines()
    assert lines[0].startswith("weyl\\simple")
    assert len(lines) == 4  # header + 3 block members


def test_verify_exit_codes(tmp_path):
    res = run_cli(
        "--format", "json", "verify", "--type", "A", "--rank", "1",
        "--cutoff", "14", "--l", "3", cache=tmp_path,
    )
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["all_passed"]
    assert all(c["result"] == "PASS" for c in data["checks"])


def test_cold_warm_determinism(tmp_path):
    args = ("--format", "json", "kl", "A", "2", "--cutoff", "8", "--all")
    cold = run_cli(*args, cache=tmp_path)
    warm = run_cli(*args, cache=tmp_path)
    assert cold.returncode == warm.returncode == 0
    assert cold.stdout == warm.stdout
    # and equal to a cache-free run
    free = run_cli(*args)
    assert free.stdout == cold.stdout


def test_corrupted_cache_detected(tmp_path):
    args = ("--format", "json", "mu", "A", "1", "--cutoff", "10", "--x", "1", "--y", "2")
    first = run_cli(*args, cache=tmp_path)
    assert first.returncode == 0
    table_file = next(tmp_path.glob("kl_*.klt"))
    blob = bytearray(table_file.read_bytes())
    blob[40] ^= 0xFF
    table_file.write_bytes(bytes(blob))
    res = run_cli(*args, cache=tmp_path)
    assert res.returncode == 1
    assert "corrupt" in res.stderr or "checksum" in res.stderr


def test_resource_cap_exit_3():
    # the element cap, and the Kostant box cap: P((2h-2) rho) would need
    # 6.6e9 (F4) and 7.5e28 (E8) points, refused before any allocation
    for args in (("--max-elements", "30", "enumerate", "A", "2", "--cutoff", "10"),
                 ("bounds", "F", "4", "--p", "2"),
                 ("bounds", "E", "8", "--p", "2")):
        res = run_cli(*args, timeout=60)
        assert res.returncode == 3, (args, res.stderr)
        assert "cap" in res.stderr and "Traceback" not in res.stderr


def test_out_of_range_index_exits_2(tmp_path):
    # affine A2 at cutoff 4 has 31 elements: -1 and 31 are both rejected,
    # never wrapped to the last element or left to an IndexError
    base = ("A", "2", "--cutoff", "4")
    for bad in ("-1", "31"):
        for args in (
            ("kl", *base, "--x", bad, "--y", "2"),
            ("kl", *base, "--x", "0", "--y", bad),
            ("mu", *base, "--x", "0", "--y", bad),
            ("mu-sum", *base, "--x", bad),
            ("klsum", *base, "--y", bad, "--m", "1"),
            ("extn", *base, "--x", "0", "--y", bad, "--n", "1"),
            ("extsum", *base, "--x", bad, "--n", "1"),
        ):
            res = run_cli(*args, cache=tmp_path)
            assert res.returncode == 2, (args, res.stderr)
            assert "0..30" in res.stderr and "Traceback" not in res.stderr
            assert res.stdout == ""


def test_config_file(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"cutoff": 12, "l": 3}))
    res = run_cli(
        "--config", str(conf), "--format", "json", "mu-sum", "A", "1", "--x", "4"
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["status"] == "exact"
    # flags still win over the file
    res = run_cli(
        "--config", str(conf), "--format", "json", "mu-sum", "A", "1", "--x", "4",
        "--cutoff", "14",
    )
    assert res.returncode == 0


def test_config_sets_subcommand_defaults(tmp_path):
    # subcommand keys from the file reach the subcommand: at cutoff 30 the
    # window around element 20 fits, at the default cutoff 10 it does not
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"cutoff": 30}))
    args = ("--format", "json", "mu-sum", "A", "1", "--x", "20", "--l", "3")
    res = run_cli("--config", str(conf), *args)
    assert res.returncode == 0 and json.loads(res.stdout)["status"] == "exact"
    res = run_cli("--config", str(conf), *args, "--cutoff", "10")
    assert res.returncode == 0 and json.loads(res.stdout)["status"] == "truncated@10"
    # a key that neither the main parser nor the subcommand has is invalid
    res = run_cli("--config", str(conf), "info", "A", "1")
    assert res.returncode == 2 and res.stderr == "error: unknown config key 'cutoff'\n"


@pytest.mark.parametrize("content, args, message", [
    ("[1]", ("info", "A", "1"), "config file must hold a JSON object"),
    ('{"format": "xml"}', ("info", "A", "1"),
     "config key 'format' must be one of json, text, csv, not \"xml\""),
    ('{"cutoff": 6.5}', ("mu", "A", "1", "--x", "0", "--y", "1"),
     "config key 'cutoff' must be an integer, not 6.5"),
    ('{"cutoff": true}', ("mu", "A", "1", "--x", "0", "--y", "1"),
     "config key 'cutoff' must be an integer, not true"),
    ('{"cache_dir": 5}', ("info", "A", "1"), "config key 'cache_dir' must be a string, not 5"),
    ('{"n": [1, 2]}', ("bounds", "A", "1", "--p", "2"),
     "config key 'n' must be an integer, not [1, 2]"),
    ('{"finite": 1}', ("enumerate", "A", "1", "--cutoff", "2"),
     "config key 'finite' must be true or false, not 1"),
    ("{", ("info", "A", "1"), "cannot read config file: Expecting property name"),
])
def test_bad_config_value_exits_2(tmp_path, content, args, message):
    conf = tmp_path / "conf.json"
    conf.write_text(content)
    res = run_cli("--config", str(conf), *args)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith(f"error: {message}") and res.stderr.count("\n") == 1


def test_config_n_is_the_first_bounds_shift(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"n": 2}))
    res = run_cli("--config", str(conf), "--format", "json", "bounds", "A", "1", "--p", "2",
                  "--n", "3")
    assert res.returncode == 0
    shifts = [r["provenance"].rsplit(" ", 1)[1] for r in json.loads(res.stdout)["reports"]
              if r["constant"] == "frobenius_shift"]
    assert shifts == ["n=2", "n=3"]


def test_negative_ext_degree_exits_2(tmp_path):
    base = ("A", "1", "--cutoff", "16", "--l", "3")
    for args in (("extn", *base, "--x", "2", "--y", "4", "--n", "-1"),
                 ("extsum", *base, "--x", "2", "--n", "-1")):
        res = run_cli(*args, cache=tmp_path)
        assert res.returncode == 2 and res.stderr == "error: n must be nonnegative\n"
        assert res.stdout == ""


def test_config_loses_to_a_flag_equal_to_its_default(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"format": "json"}))
    res = run_cli("--config", str(conf), "info", "A", "1")
    assert json.loads(res.stdout)["h"] == 2
    res = run_cli("--config", str(conf), "--format", "text", "info", "A", "1")
    assert res.returncode == 0 and "h: 2" in res.stdout.splitlines()


def test_truncated_flag_rendering(tmp_path):
    # a dominant element too close to the cutoff for the support window
    res = run_cli(
        "--format", "json", "mu-sum", "A", "1", "--cutoff", "10", "--l", "3",
        "--x", "20", cache=tmp_path,
    )
    data = json.loads(res.stdout)
    assert data["status"].startswith("truncated@")
    # non-dominant input is an invalid-argument error
    res = run_cli(
        "--format", "json", "mu-sum", "A", "1", "--cutoff", "10", "--l", "3",
        "--x", "19", cache=tmp_path,
    )
    assert res.returncode == 2


def test_workers_flag_prints_the_same(tmp_path):
    # the fill is sequential; --workers is accepted and changes no output
    args = ("--format", "json", "kl", "A", "2", "--cutoff", "8", "--all")
    one = run_cli("--workers", "1", *args, cache=tmp_path / "one")
    four = run_cli("--workers", "4", *args, cache=tmp_path / "four")
    assert one.returncode == four.returncode == 0
    assert one.stdout == four.stdout


def test_v1_cache_rejected(tmp_path):
    args = ("mu", "A", "1", "--cutoff", "10", "--x", "1", "--y", "2")
    assert run_cli(*args, cache=tmp_path).returncode == 0
    table_file = next(tmp_path.glob("kl_*.klt"))
    blob = bytearray(table_file.read_bytes()[:-32])
    blob[8:12] = (1).to_bytes(4, "big")  # the version field of the frame
    table_file.write_bytes(bytes(blob) + hashlib.sha256(blob).digest())
    res = run_cli(*args, cache=tmp_path)
    assert res.returncode == 1 and res.stdout == ""
    assert "version 1, expected 2" in res.stderr and "delete" in res.stderr
    assert "Traceback" not in res.stderr


def test_v1_slice_cache_rejected(tmp_path):
    args = ("mu", "A", "1", "--cutoff", "10", "--x", "1", "--y", "2")
    first = run_cli(*args, cache=tmp_path)
    assert first.returncode == 0
    slice_file = next(tmp_path.glob("slice_*.slc"))
    saved = slice_file.read_bytes()
    blob = bytearray(saved[:-32])
    blob[8:12] = (1).to_bytes(4, "big")  # the version field of the frame
    slice_file.write_bytes(bytes(blob) + hashlib.sha256(blob).digest())
    res = run_cli(*args, cache=tmp_path)
    assert res.returncode == 1 and res.stdout == ""
    assert "version 1, expected 2" in res.stderr and "delete" in res.stderr
    assert "Traceback" not in res.stderr
    # deleted, it is rebuilt beside the table that is still there
    slice_file.unlink()
    res = run_cli(*args, cache=tmp_path)
    assert res.returncode == 0 and res.stdout == first.stdout
    assert slice_file.read_bytes() == saved


def test_mismatched_table_cache_rejected(tmp_path):
    # an A2 table under the B2 name with no slice file beside it must not
    # answer B2 queries: mu(1, 7) is 1 on B2 and 0 on A2
    assert run_cli("mu", "A", "2", "--cutoff", "6", "--x", "1", "--y", "7",
                   cache=tmp_path).returncode == 0
    (tmp_path / "kl_A2_aff_L6.klt").rename(tmp_path / "kl_B2_aff_L6.klt")
    for path in tmp_path.glob("slice_*.slc"):
        path.unlink()
    for y in ("7", "60"):
        res = run_cli("mu", "B", "2", "--cutoff", "6", "--x", "1", "--y", y, cache=tmp_path)
        assert res.returncode == 1 and res.stdout == "", res.stderr
        assert "does not match" in res.stderr and "Traceback" not in res.stderr
    # so must a matching pair of another cutoff under this cutoff's names
    other = tmp_path / "other"
    assert run_cli("mu", "B", "2", "--cutoff", "5", "--x", "1", "--y", "7",
                   cache=other).returncode == 0
    for path in other.iterdir():
        path.rename(other / path.name.replace("_L5.", "_L6."))
    res = run_cli("mu", "B", "2", "--cutoff", "6", "--x", "1", "--y", "7", cache=other)
    assert res.returncode == 1 and "does not match" in res.stderr
    # the rightful table answers as a cache-free run does; B2@6 has 57 elements
    good = tmp_path / "good"
    free = run_cli("mu", "B", "2", "--cutoff", "6", "--x", "1", "--y", "7")
    for _ in range(2):
        res = run_cli("mu", "B", "2", "--cutoff", "6", "--x", "1", "--y", "7", cache=good)
        assert res.returncode == 0 and res.stdout == free.stdout == "mu: 1\nx: 1\ny: 7\n"
    res = run_cli("mu", "B", "2", "--cutoff", "6", "--x", "1", "--y", "60", cache=good)
    assert res.returncode == 2 and "0..56" in res.stderr


def test_unusable_paths_exit_2(tmp_path):
    # a path the operating system refuses is a configuration error: one
    # error line and exit 2, never a traceback
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    entry = tmp_path / "cache"
    (entry / "kl_A1_aff_L4.klt").mkdir(parents=True)
    mu = ("mu", "A", "1", "--cutoff", "4", "--x", "0", "--y", "1")
    for res in (
        run_cli(*mu, cache=blocker),  # --cache-dir is a file
        run_cli(*mu, cache=blocker / "sub"),  # --cache-dir lies under one
        run_cli("enumerate", "A", "1", "--cutoff", "4",
                "--export-json", str(tmp_path / "missing" / "slice.json")),
        run_cli(*mu, cache=entry),  # a cache entry is a directory
    ):
        assert res.returncode == 2 and res.stdout == "", res.stderr
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


def test_element_cap_on_every_path(tmp_path):
    args = ("mu", "A", "2", "--cutoff", "10", "--x", "0", "--y", "5")
    capped = ("--max-elements", "30", *args)
    cold = run_cli(*capped, cache=tmp_path)
    assert cold.returncode == 3 and not list(tmp_path.iterdir())
    assert run_cli(*args, cache=tmp_path).returncode == 0  # primes the cache
    warm = run_cli(*capped, cache=tmp_path)
    free = run_cli(*capped)
    assert warm.returncode == free.returncode == 3
    assert warm.stderr == free.stderr == cold.stderr == (
        "resource cap: slice exceeded the configured cap of 30 elements at length 4\n"
    )
    # a cap the slice fits under leaves the warm run alone
    assert run_cli("--max-elements", "166", *args, cache=tmp_path).returncode == 0
    assert run_cli("--max-elements", "165", *args, cache=tmp_path).returncode == 3


def test_level_warnings():
    # the default l = h is the CLI's own choice: no warning about it
    base = ("extsum", "A", "2", "--cutoff", "4", "--x", "15", "--n", "1")
    default = run_cli(*base)
    assert default.returncode == 0 and default.stderr == ""
    # an explicit l <= h warns, as one line with no source line
    res = run_cli(*base, "--l", "3")
    assert res.returncode == 0 and res.stdout == default.stdout
    assert res.stderr.splitlines() == [
        "warning: l=3 is not above the Coxeter number 3; "
        "character-level readings assume l > h",
    ]
    # so does an l that breaks the root-of-unity rules
    res = run_cli("extsum", "B", "2", "--cutoff", "4", "--x", "21", "--n", "1", "--l", "6")
    assert res.returncode == 0
    assert res.stderr.splitlines() == [
        "warning: l=6 violates the usual root-of-unity restrictions "
        "(odd, prime to 3 for G2); combinatorial results only",
    ]


def test_kl_queries_leave_character_modules_unrun(tmp_path):
    # characters and extbounds (with the dataclasses they import) are
    # registered by ``import klext.cli`` but run only by a command that uses
    # them; ``loaded`` lists the ones that ran
    probe = (
        "import sys, types\n"
        "from klext.cli import main\n"
        "main(sys.argv[1:]) if sys.argv[1:] else None\n"
        "names = ('klext.characters', 'klext.extbounds', 'dataclasses')\n"
        "print('loaded', [n for n in names if type(sys.modules.get(n)) is types.ModuleType])\n"
    )
    mu = ["--cache-dir", str(tmp_path), "mu", "A", "2", "--cutoff", "6", "--x", "0", "--y", "5"]
    assert run_cli(*mu[2:], cache=tmp_path).returncode == 0
    for argv, loaded in (
        ([], "[]"),
        (mu, "[]"),  # warm
        (["char", "A", "2", "--weight", "1,0"], "['klext.characters', 'dataclasses']"),
        (["bounds", "A", "2", "--p", "3"],
         "['klext.characters', 'klext.extbounds', 'dataclasses']"),
    ):
        res = subprocess.run([sys.executable, "-c", probe, *argv],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == f"loaded {loaded}"


def test_repeated_table_index_exits_1(tmp_path):
    from klext import binio

    args = ("kl", "A", "1", "--cutoff", "4", "--x", "0", "--y", "8")
    first = run_cli(*args, cache=tmp_path)
    assert first.returncode == 0 and "0: 1" in first.stdout
    table_file = next(tmp_path.glob("kl_*.klt"))
    payload = bytearray(binio.read_frame(table_file, b"KLXTABLE", 2))
    # the last row (y = 8) stores x = 0..6 and 8 as 2-byte indices, then
    # 1-byte pool ids; x = 0 becomes a second x = 1
    at = len(payload) - 3 * 8
    payload[at : at + 2] = (1).to_bytes(2, "big")
    binio.write_frame(table_file, b"KLXTABLE", 2, bytes(payload))
    res = run_cli(*args, cache=tmp_path)
    assert res.returncode == 1 and res.stdout == ""
    assert "repeats an element index" in res.stderr and "Traceback" not in res.stderr
    # rows that are not read still answer
    assert run_cli("kl", "A", "1", "--cutoff", "4", "--x", "0", "--y", "7",
                   cache=tmp_path).returncode == 0


def test_table_header_not_filled_to_cutoff_exits_1(tmp_path):
    # a table file always holds every row of its slice; one whose header
    # claims another length is rejected, not read as a longer table that
    # would turn a truncated sum into an exact one
    from klext import binio

    args = ("--format", "json", "extsum", "A", "1", "--cutoff", "10", "--l", "3",
            "--x", "20", "--n", "1")
    first = run_cli(*args, cache=tmp_path)
    assert json.loads(first.stdout)["status"] == "truncated@10"
    table_file = next(tmp_path.glob("kl_*.klt"))
    payload = bytearray(binio.read_frame(table_file, b"KLXTABLE", 2))
    payload[8:12] = (99).to_bytes(4, "big")  # the header's filled length
    binio.write_frame(table_file, b"KLXTABLE", 2, bytes(payload))
    res = run_cli(*args, cache=tmp_path)
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == (
        f"error: {table_file}: table header says filled to length 99, not its cutoff 10\n")


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every command of README's CLI block, in process, run in tmp_path so
    # that its .cache lands there
    import pathlib
    import shlex

    from klext import cli

    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [c for c in commands if c and c[0] == "klext"]
    assert commands
    monkeypatch.delenv("KLEXT_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, (argv, capsys.readouterr().err)
        assert capsys.readouterr().out
