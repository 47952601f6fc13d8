"""CLI: outputs, exit codes, cache behavior, determinism."""

import hashlib
import json
import random
import subprocess
import sys

import pytest


def run_cli(*args, cache=None, timeout=None):
    cmd = [sys.executable, "-m", "klext.cli"]
    if cache is not None:
        cmd += ["--cache-dir", str(cache)]
    cmd += list(args)
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if "json" in args and res.stdout:  # every JSON output is exactly what json.dumps writes
        assert res.stdout == as_json_dumps(res.stdout), args
    return res


def as_json_dumps(out):
    return json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


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


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_failed_verify_exits_1_in_every_format(fmt, monkeypatch, capsys):
    from klext import cli, extbounds

    monkeypatch.delenv("KLEXT_CACHE_DIR", raising=False)
    monkeypatch.setattr(extbounds, "run_verification",
                        lambda rs, l, table: [("kl_axioms", False, "P(y,y) != 1 at 0")])
    rc = cli.main(["--format", fmt, "verify", "--type", "A", "--rank", "1", "--cutoff", "2"])
    out = capsys.readouterr().out
    assert rc == 1 and "FAIL" in out and "P(y,y) != 1 at 0" in out


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
    args = ("--format", "json", "kl", "A", "1", "--cutoff", "10", "--x", "1", "--y", "2")
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
                 ("--max-elements", "0", "enumerate", "A", "1", "--cutoff", "0"),
                 ("bounds", "F", "4", "--p", "2"),
                 ("bounds", "E", "8", "--p", "2")):
        res = run_cli(*args, timeout=60)
        assert res.returncode == 3, (args, res.stderr)
        assert "cap" in res.stderr and "Traceback" not in res.stderr


def test_rank_cap_exits_3_at_once():
    # info A 50 took 11.7 s and info A 99999 did not finish
    for args in (("info", "A", "99999"), ("--format", "json", "char", "D", "17", "--weight",
                                          ",".join(["0"] * 17))):
        res = run_cli(*args, timeout=20)
        assert res.returncode == 3, (args, res.stderr)
        assert res.stderr.startswith("resource cap: rank ") and res.stderr.count("\n") == 1
        assert res.stdout == ""


def test_negative_element_cap_exits_2(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text('{"max_elements": -1}')
    args = ("enumerate", "A", "1", "--cutoff", "0")
    for res in (run_cli("--max-elements", "-1", *args), run_cli("--config", str(conf), *args)):
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr == "error: --max-elements must be nonnegative, not -1\n"


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
    # keys whose defaults can never take effect: positionals, required
    # options of the command that runs, help, version and config itself
    ('{"rank": 5, "type": "B"}', ("info", "A", "1"),
     "config key 'rank' can only be given on the command line"),
    ('{"help": true}', ("info", "A", "1"),
     "config key 'help' can only be given on the command line"),
    ('{"command": "info"}', ("info", "A", "1"),
     "config key 'command' can only be given on the command line"),
    ('{"version": true}', ("info", "A", "1"),
     "config key 'version' can only be given on the command line"),
    ('{"config": "x.json"}', ("info", "A", "1"),
     "config key 'config' can only be given on the command line"),
    ('{"x": 1}', ("mu", "A", "1", "--cutoff", "4", "--x", "0", "--y", "1"),
     "config key 'x' can only be given on the command line"),
    ('{"type": "B"}', ("verify", "--type", "A", "--rank", "1", "--cutoff", "4"),
     "config key 'type' can only be given on the command line"),
    # a value is checked against the options of the command that runs only
    ('{"bound": 5}', ("info", "A", "1"), "unknown config key 'bound'"),
    ('{"bound": 5}', ("decomp", "A", "2", "--seed", "1,1"),
     "config key 'bound' must be a string, not 5"),
])
def test_bad_config_value_exits_2(tmp_path, content, args, message):
    conf = tmp_path / "conf.json"
    conf.write_text(content)
    res = run_cli("--config", str(conf), *args)
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr.startswith(f"error: {message}") and res.stderr.count("\n") == 1


def test_config_sets_an_option_that_is_required_elsewhere(tmp_path):
    # --x is required on mu but optional on kl, where the file may set it
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"x": 1}))
    res = run_cli("--config", str(conf), "--format", "json", "kl", "A", "1", "--cutoff", "4",
                  "--y", "3")
    assert res.returncode == 0 and json.loads(res.stdout)["x"] == 1


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


def test_negative_level_exits_2(tmp_path):
    # --l 0 stands for h; a negative level is refused even where l is unused
    conf = tmp_path / "conf.json"
    conf.write_text('{"l": -3}')
    for args in (("verify", "--type", "A", "--rank", "2", "--cutoff", "6"),
                 ("mu-sum", "A", "1", "--cutoff", "6", "--x", "0")):
        for res in (run_cli(*args, "--l", "-2"), run_cli("--config", str(conf), *args)):
            assert res.returncode == 2 and res.stdout == "", args
            assert res.stderr == "error: l must be a positive integer\n"
    res = run_cli("--format", "json", "verify", "--type", "A", "--rank", "2", "--cutoff", "6",
                  "--l", "0")
    assert res.returncode == 0 and json.loads(res.stdout)["l"] == 3


def test_config_loses_to_a_flag_equal_to_its_default(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"format": "json"}))
    res = run_cli("--config", str(conf), "info", "A", "1")
    assert json.loads(res.stdout)["h"] == 2
    res = run_cli("--config", str(conf), "--format", "text", "info", "A", "1")
    assert res.returncode == 0 and "h: 2" in res.stdout.splitlines()


def test_command_line_is_parsed_before_the_config_file(tmp_path):
    # --help and --version never read the file, and a usage error on the
    # command line wins over an error in the file
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    res = run_cli("--config", str(broken), "--version")
    assert res.returncode == 0 and res.stdout == "klext 0.1.0\n" and res.stderr == ""
    res = run_cli("--config", str(tmp_path / "missing.json"), "info", "--help")
    assert res.returncode == 0 and res.stdout.startswith("usage: klext info")
    for conf in (broken, tmp_path / "missing.json"):
        res = run_cli("--config", str(conf), "info", "A")
        assert res.returncode == 2 and res.stdout == ""
        assert "the following arguments are required: rank" in res.stderr
        assert "config" not in res.stderr
    # the --config=path spelling is honoured
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"format": "json"}))
    res = run_cli(f"--config={conf}", "info", "A", "1")
    assert res.returncode == 0 and json.loads(res.stdout)["h"] == 2


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
    # and a version-2 table, which held every row, likewise
    args = ("kl", "A", "1", "--cutoff", "10", "--x", "1", "--y", "2")
    assert run_cli(*args, cache=tmp_path).returncode == 0
    table_file = next(tmp_path.glob("kl_*.klt"))
    saved = table_file.read_bytes()
    for version in (1, 2):
        blob = bytearray(saved[:-32])
        blob[8:12] = version.to_bytes(4, "big")  # the version field of the frame
        table_file.write_bytes(bytes(blob) + hashlib.sha256(blob).digest())
        res = run_cli(*args, cache=tmp_path)
        assert res.returncode == 1 and res.stdout == ""
        assert f"version {version}, expected 3" in res.stderr and "delete" in res.stderr
        assert "Traceback" not in res.stderr


def test_v1_slice_cache_rejected(tmp_path):
    args = ("kl", "A", "1", "--cutoff", "10", "--x", "1", "--y", "2")
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
    assert run_cli("kl", "A", "2", "--cutoff", "6", "--x", "1", "--y", "7",
                   cache=tmp_path).returncode == 0
    (tmp_path / "kl_A2_aff_L6.klt").rename(tmp_path / "kl_B2_aff_L6.klt")
    for path in tmp_path.glob("slice_*.slc"):
        path.unlink()
    for y in ("7", "60"):
        res = run_cli("kl", "B", "2", "--cutoff", "6", "--x", "1", "--y", y, cache=tmp_path)
        assert res.returncode == 1 and res.stdout == "", res.stderr
        assert "does not match" in res.stderr and "Traceback" not in res.stderr
    # so must a matching pair of another cutoff under this cutoff's names
    other = tmp_path / "other"
    assert run_cli("kl", "B", "2", "--cutoff", "5", "--x", "1", "--y", "7",
                   cache=other).returncode == 0
    for path in other.iterdir():
        path.rename(other / path.name.replace("_L5.", "_L6."))
    res = run_cli("kl", "B", "2", "--cutoff", "6", "--x", "1", "--y", "7", cache=other)
    assert res.returncode == 1 and "does not match" in res.stderr
    # the rightful table answers as a cache-free run does; B2@6 has 57 elements
    good = tmp_path / "good"
    free = run_cli("kl", "B", "2", "--cutoff", "6", "--x", "1", "--y", "7")
    for _ in range(2):
        res = run_cli("kl", "B", "2", "--cutoff", "6", "--x", "1", "--y", "7", cache=good)
        assert res.returncode == 0 and res.stdout == free.stdout == (
            "length_x: 1\nlength_y: 2\nmu: 1\npolynomial_coeffs:\n  0: 1\nx: 1\ny: 7\n")
    res = run_cli("kl", "B", "2", "--cutoff", "6", "--x", "1", "--y", "60", cache=good)
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
        run_cli("kl", "A", "1", "--cutoff", "4", "--x", "0", "--y", "1",
                cache=entry),  # a cache entry is a directory
    ):
        assert res.returncode == 2 and res.stdout == "", res.stderr
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


def test_element_cap_on_every_path(tmp_path):
    args = ("kl", "A", "2", "--cutoff", "10", "--x", "0", "--y", "5")
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


@pytest.mark.parametrize("args", [
    ("verify", "--type", "A", "--rank", "2", "--cutoff", "10"),
    ("bounds", "A", "2", "--p", "2", "--empirical", "--cutoff", "10"),
])
def test_element_cap_on_every_path_of_verify_and_bounds(tmp_path, args):
    capped = ("--max-elements", "30", *args)
    cold = run_cli(*capped, cache=tmp_path)
    assert cold.returncode == 3 and not list(tmp_path.iterdir())
    primed = run_cli(*args, cache=tmp_path)
    again = run_cli(*args, cache=tmp_path)
    assert primed.returncode == again.returncode == 0 and primed.stdout == again.stdout
    warm = run_cli(*capped, cache=tmp_path)
    free = run_cli(*capped)
    assert warm.returncode == free.returncode == 3 and warm.stdout == free.stdout == ""
    assert warm.stderr == free.stderr == cold.stderr == (
        "resource cap: slice exceeded the configured cap of 30 elements at length 4\n"
    )


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


def test_cache_frames_alone_load_sha256(tmp_path, monkeypatch):
    # no command imports hashlib, which loads OpenSSL: a cache file's digest
    # comes from CPython's own SHA-256 module, which only reading or writing
    # a cache file imports, so an uncached query pays for neither; no
    # command loads dataclasses or the inspect module it imports
    sha = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
    probe = (
        "import sys, types\n"
        "from klext.cli import main\n"
        "main(sys.argv[1:]) if sys.argv[1:] else None\n"
        "names = ('hashlib', '_sha2', '_sha256', 'dataclasses', 'inspect')\n"
        "print('loaded', [n for n in names if type(sys.modules.get(n)) is types.ModuleType])\n"
    )
    monkeypatch.delenv("KLEXT_CACHE_DIR", raising=False)
    mu = ["mu", "A", "2", "--cutoff", "6", "--x", "0", "--y", "5"]
    kl = ["kl", *mu[1:]]
    assert run_cli(*kl, cache=tmp_path).returncode == 0
    for argv, loaded in (
        ([], "[]"),
        (mu, "[]"),  # uncached
        (["--cache-dir", str(tmp_path), *mu], "[]"),  # mu reads no cache file
        (["--cache-dir", str(tmp_path), *kl], f"['{sha}']"),  # warm: reads frames
        (["--cache-dir", str(tmp_path / "cold"), *kl], f"['{sha}']"),  # cold: writes them
        (["char", "A", "2", "--weight", "1,0"], "[]"),
        (["bounds", "A", "2", "--p", "3"], "[]"),
    ):
        res = subprocess.run([sys.executable, "-c", probe, *argv],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == f"loaded {loaded}", argv


def test_weight_box_cap_exits_3():
    for args in (("char", "A", "1", "--weight", "3000000"),
                 ("tensor", "A", "1", "--left", "3000000", "--right", "3000000")):
        res = run_cli(*args, timeout=30)
        assert (res.returncode, res.stdout) == (3, ""), args
        assert res.stderr == (
            "resource cap: dominant weights below (3000000,) need a box of 1500001 points, "
            "above the cap of 1000000\n"
        )


def test_repeated_table_index_exits_1(tmp_path):
    from klext import binio

    args = ("kl", "A", "1", "--cutoff", "4", "--x", "0", "--y", "7")
    first = run_cli(*args, cache=tmp_path)
    assert first.returncode == 0 and "0: 1" in first.stdout
    table_file = next(tmp_path.glob("kl_*.klt"))
    payload = bytearray(binio.read_frame(table_file, b"KLXTABLE", 3))
    # the last record is row y = 7, the representative of the orbit {7, 8}:
    # it stores x = 0..7 as 2-byte indices, then 1-byte pool ids; x = 0
    # becomes a second x = 1
    at = len(payload) - 3 * 8
    payload[at : at + 2] = (1).to_bytes(2, "big")
    binio.write_frame(table_file, b"KLXTABLE", 3, bytes(payload))
    # the load decodes every stored row, so every query is refused: row 7
    # itself, row 8 relabelled from it, and row 6, which reads neither
    for y in ("7", "8", "6"):
        res = run_cli(*args[:-1], y, cache=tmp_path)
        assert res.returncode == 1 and res.stdout == ""
        assert "row 7 repeats an element index" in res.stderr and "Traceback" not in res.stderr
        assert res.stderr.count("\n") == 1


def test_table_header_not_filled_to_cutoff_exits_1(tmp_path):
    # a table file always holds every row of its slice; one whose header
    # claims another length is rejected, never read as a table of that length
    from klext import binio

    args = ("--format", "json", "kl", "A", "1", "--cutoff", "10", "--x", "0", "--y", "20")
    first = run_cli(*args, cache=tmp_path)
    assert json.loads(first.stdout)["polynomial_coeffs"] == {"0": 1}
    table_file = next(tmp_path.glob("kl_*.klt"))
    payload = bytearray(binio.read_frame(table_file, b"KLXTABLE", 3))
    payload[8:12] = (99).to_bytes(4, "big")  # the header's filled length
    binio.write_frame(table_file, b"KLXTABLE", 3, bytes(payload))
    res = run_cli(*args, cache=tmp_path)
    assert res.returncode == 1 and res.stdout == ""
    assert res.stderr == (
        f"error: {table_file}: table header says filled to length 99, not its cutoff 10\n")


def readme_commands():
    """The klext arguments of each command of README's CLI block."""
    import pathlib
    import shlex

    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    return [c[1:] for c in commands if c and c[0] == "klext"]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    # every command of README's CLI block, in process, run in tmp_path so
    # that its .cache lands there
    from klext import cli

    commands = readme_commands()
    assert commands
    monkeypatch.delenv("KLEXT_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
        assert capsys.readouterr().out


# one run of every subcommand, in process
EVERY_COMMAND = [
    ["info", "A", "2"],
    ["enumerate", "A", "2", "--cutoff", "4"],
    ["kl", "A", "2", "--cutoff", "6", "--x", "0", "--y", "30"],
    ["kl", "A", "2", "--cutoff", "6", "--all"],
    ["mu", "A", "2", "--cutoff", "6", "--x", "3", "--y", "12"],
    ["mu-sum", "A", "1", "--cutoff", "12", "--l", "3", "--x", "4"],
    ["klsum", "A", "2", "--cutoff", "6", "--y", "40", "--m", "1"],
    ["char", "B", "2", "--weight", "1,1"],
    ["chikl", "A", "1", "--cutoff", "12", "--l", "3", "--weight", "3"],
    ["decomp", "A", "1", "--cutoff", "12", "--l", "3", "--seed", "0", "--bound", "6"],
    ["tensor", "A", "2", "--left", "1,0", "--right", "0,1"],
    ["ext1", "A", "1", "--cutoff", "12", "--l", "3", "--lam", "4", "--nu", "0"],
    ["ext1", "A", "1", "--cutoff", "12", "--l", "3", "--lam", "2", "--nu", "0"],
    ["extn", "A", "1", "--cutoff", "12", "--l", "3", "--x", "2", "--y", "4", "--n", "2"],
    ["extsum", "A", "1", "--cutoff", "12", "--l", "3", "--x", "8", "--n", "1"],
    ["pim", "A", "1", "--cutoff", "16", "--l", "5", "--lambda0", "2"],
    ["bounds", "A", "1", "--p", "2", "--empirical", "--cutoff", "8"],
    ["isogeny-map", "C", "3", "--weight", "2,0,1"],
    ["generic-shift", "A", "2", "--p", "3", "--n", "2"],
    ["verify", "--type", "A", "--rank", "1", "--cutoff", "8", "--l", "3"],
]


def test_every_json_output_is_json_dumps(monkeypatch, capsys):
    from klext import cli

    monkeypatch.delenv("KLEXT_CACHE_DIR", raising=False)
    commands = {argv[0] for argv in EVERY_COMMAND}
    subs = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert commands == set(subs.choices)
    for argv in EVERY_COMMAND:
        assert cli.main(["--format", "json", *argv]) == 0, argv
        out = capsys.readouterr().out
        assert out == as_json_dumps(out), argv


_TEXT = 'ab "\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\u4e2d\U0001f600'
_KEY_TEXT = 'k%"{\u2028'


def _random_json(rng, depth=0):
    """A nested payload of the kinds json.dumps takes, with string keys as
    every command's payload has."""
    kinds = ["int", "constant", "float", "str"]
    if depth < 4:
        kinds += ["list", "tuple", "dict"] * 2 + ["records"] * (depth < 2)
    kind = rng.choice(kinds)
    if kind == "int":
        return rng.choice([0, -1, 2 ** 64, -(3 ** 90), 10 ** 40 + 7, rng.randrange(-999, 999)])
    if kind == "constant":
        return rng.choice([True, False, None])
    if kind == "float":
        return rng.choice([0.5, -1e300, 3.0, float("inf"), float("nan")])
    if kind == "str":
        return "".join(rng.choice(_TEXT) for _ in range(rng.randrange(6)))
    if kind == "records":
        return _random_records(rng)
    items = [_random_json(rng, depth + 1) for _ in range(rng.choice([0, 1, 2, 5]))]
    if kind == "list":
        return items
    if kind == "tuple":
        return tuple(items)
    return {"".join(rng.choice(_TEXT) for _ in range(rng.randrange(4))): x for x in items}


def _random_records(rng, shared=None):
    """A list of 2 to 40 dicts with one key set, some of whose values are
    one shared sub-dict or sub-list; or a
    list of scalar rows, some empty, as a ``csv_rows``. Some lists break
    the shape at a later item: a record with a key more or less, a record
    with the same keys inserted in another order (which the text format
    keeps), or an item that is no dict. A top-level call's records may
    hold a list of records that shares the same objects one level
    deeper."""
    n = rng.randrange(2, 41)
    if rng.random() < 0.25:
        return [[_random_json(rng, 4) for _ in range(rng.choice([0, 1, 3, 6]))]
                for _ in range(n)]
    keys = list(dict.fromkeys("".join(rng.choice(_KEY_TEXT) for _ in range(rng.randrange(1, 4)))
                              for _ in range(rng.randrange(1, 6))))
    top = shared is None
    if top:
        shared = [{"0": 1, "%s": 10 ** 40}, [True, None, 0.5, {"{": []}]]

    def value():
        r = rng.random()
        if r < 0.3:
            return rng.choice(shared)
        return _random_records(rng, shared) if top and r < 0.33 else _random_json(rng, 3)

    records = [{k: value() for k in keys} for _ in range(n)]
    i = rng.randrange(1, n)
    broken = rng.choice(["none", "extra", "missing", "order", "item"])
    if broken == "extra":
        records[i]["%d extra"] = None
    elif broken == "missing":
        del records[i][keys[0]]
    elif broken == "order":
        records[i] = dict(reversed(records[i].items()))
    elif broken == "item":
        records[i] = rng.choice([shared[1], 7, "k", ()])
    return records


def test_json_renderer_matches_json_dumps():
    from klext.cli import _render

    rng = random.Random(1)
    for _ in range(3000):
        payload = _random_json(rng)
        want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert "".join(_render(payload, "json")) == want
    for bad in ({1: 0}, {"a": 1, 2: 0}, {"a": object()}):  # never a payload
        with pytest.raises(TypeError):
            "".join(_render(bad, "json"))


def test_inline_json_leaves_equal_json_dumps():
    # None, True and False are spelled inline, and the csv column of a
    # coefficient dict is written directly; json.dumps is the reference
    from klext.cli import _coeff_fields, _json, _scalar

    for v in (None, True, False, 0.5, float("nan")):
        assert _scalar(v) == json.dumps(v)
    payload = {"a": [None, True, False], "b": {"c": None, "d": True}, "e": False}
    assert "".join(_json(payload, "\n")) == json.dumps(payload, sort_keys=True, indent=2)
    for coeffs in ((), (0,), (1,), (1, 0, 2), (0, 10 ** 40, 0, 3, -(2 ** 70)),
                   tuple(range(12))):
        d, text = _coeff_fields(coeffs)
        assert text == json.dumps(d), coeffs
        assert json.loads(text) == {str(e): c for e, c in enumerate(coeffs) if c}


# one command line of each kind that the benchmark runs, on small slices
BENCH_KINDS = [
    ["mu", "A", "2", "--cutoff", "8", "--x", "3", "--y", "40"],
    ["--format", "csv", "mu-sum", "A", "2", "--cutoff", "8", "--x", "15"],
    ["--format", "json", "ext1", "A", "2", "--cutoff", "8", "--lam", "1,1", "--nu", "1,1"],
    ["extn", "A", "2", "--cutoff", "8", "--x", "15", "--y", "30", "--n", "1"],
    ["--format", "json", "extsum", "A", "2", "--cutoff", "8", "--x", "15", "--n", "1"],
    ["--format", "csv", "decomp", "A", "2", "--cutoff", "8", "--seed", "1,1", "--bound", "4,1"],
    ["--format", "json", "pim", "A", "2", "--cutoff", "8", "--lambda0", "1,1"],
    ["--format", "json", "chikl", "A", "2", "--cutoff", "8", "--weight", "1,1"],
    ["--format", "json", "bounds", "A", "2", "--p", "2", "--empirical", "--cutoff", "8"],
    ["--format", "json", "verify", "--type", "A", "--rank", "1", "--cutoff", "8"],
    ["--format", "json", "kl", "A", "2", "--cutoff", "8", "--x", "3", "--y", "40"],
    ["--format", "json", "kl", "A", "2", "--cutoff", "6", "--all"],
]


def test_bench_commands_load_no_json(tmp_path):
    # json is imported only where an output needs it: no command of the
    # benchmark's kinds loads it, with no cache, a cold cache or a warm one
    runs = [argv for argv in BENCH_KINDS for argv in
            (argv, ["--cache-dir", str(tmp_path), *argv], ["--cache-dir", str(tmp_path), *argv])]
    code = ("import contextlib, io, sys\n"
            "base = set(sys.modules)\n"
            "from klext import cli\n"
            "found = []\n"
            f"for argv in {runs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        status = cli.main(argv)\n"
            "    found.append((status, sorted(m for m in sys.modules if 'json' in m)))\n"
            "print(found)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert eval(res.stdout) == [(0, ["_json"])] * len(runs)


def test_every_format_prints_the_same_without_the_c_quoter():
    # without _json, the quoter is json.encoder's pure-Python one: every
    # command prints the same bytes in every format
    code = ("import contextlib, hashlib, io, sys\n"
            "if sys.argv[1] == 'blocked':\n"
            "    sys.modules['_json'] = None\n"
            "from klext import cli\n"
            "for argv in %r:\n"
            "    for fmt in ('text', 'json', 'csv'):\n"
            "        out = io.StringIO()\n"
            "        with contextlib.redirect_stdout(out):\n"
            "            status = cli.main(['--format', fmt, *argv])\n"
            "        print(status, hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
            "print(cli._quote.__module__)\n") % (EVERY_COMMAND,)
    outs = []
    for mode in ("plain", "blocked"):
        res = subprocess.run([sys.executable, "-c", code, mode], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout.splitlines())
    (*plain, plain_quoter), (*blocked, blocked_quoter) = outs
    assert (plain_quoter, blocked_quoter) == ("_json", "json.encoder")
    assert len(plain) == 3 * len(EVERY_COMMAND) and plain == blocked


def test_json_export_is_written_without_a_copy_of_the_whole_output(monkeypatch):
    # the A2@12 kl --all payload is 3.95 MB as JSON, 2.3 MB as text and
    # 0.5 MB as csv; written into a sink that keeps nothing, its rendering
    # may hold a few pieces at a time only, in every format
    import os
    import tracemalloc

    from klext import cli

    monkeypatch.delenv("KLEXT_CACHE_DIR", raising=False)
    payload = cli.cmd_kl(cli.build_parser().parse_args(
        ["kl", "A", "2", "--cutoff", "12", "--all"]))
    for fmt in ("json", "text", "csv"):
        with open(os.devnull, "w") as sink:
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                cli._write(cli._render(payload, fmt), sink)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak - start < 1 << 20, fmt


# ids: the PYTHONUNBUFFERED value, after the format unless it is json
@pytest.mark.parametrize("unbuffered,fmt,start", [
    pytest.param(unbuffered, fmt, start,
                 id=unbuffered if fmt == "json" else "-".join(filter(None, (fmt, unbuffered))))
    for fmt, start in (("json", b"{"), ("text", b"csv_rows:"), ("csv", b"x,y,"))
    for unbuffered in ("", "1")
])
def test_reader_that_stops_early_gets_one_error_line(unbuffered, fmt, start):
    # the export (1.9 MB of JSON, 1.1 MB of text, 232 kB of csv) outgrows
    # any pipe buffer, so a write fails: exit 2 with one error line, and no
    # traceback or failed flush at exit, with stdout buffered or not
    import os

    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    env.pop("KLEXT_CACHE_DIR", None)
    argv = [sys.executable, "-m", "klext.cli", "--format", fmt, "kl", "A", "2",
            "--cutoff", "10", "--all"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.read(100).startswith(start)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2 and err == b"error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", [
    pytest.param(("info", "A", "2"), id="small"),
    pytest.param(("--format", "json", "kl", "A", "2", "--cutoff", "10", "--all"), id="export"),
])
def test_reader_closed_before_start_gets_one_error_line(args, unbuffered):
    # info's output fits in stdout's buffer, so only the flush meets the
    # closed pipe; Python's flush at teardown used to fail there, exit 120
    import os

    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    env.pop("KLEXT_CACHE_DIR", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run([sys.executable, "-m", "klext.cli", *args], stdout=write_end,
                             stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert res.returncode == 2 and res.stderr == b"error: [Errno 32] Broken pipe\n"


def test_closed_stdout_exits_2_and_computes_nothing(tmp_path):
    # with stdout's descriptor closed at startup sys.stdout is None: one
    # error line and exit 2, as for any unusable output, before the command
    # computes anything or creates its cache directory, through the module
    # and through main() without argv, which ends the process itself
    import os

    cache = tmp_path / "cache"
    program = "import sys; from klext.cli import main; main()"
    for args in (("info", "A", "2"),
                 ("--cache-dir", str(cache), "mu", "A", "2", "--cutoff", "6", "--x", "0",
                  "--y", "5")):
        for run in (["-m", "klext.cli"], ["-c", program]):
            res = subprocess.run([sys.executable, *run, *args], stderr=subprocess.PIPE,
                                 preexec_fn=lambda: os.close(1), timeout=60)
            assert (res.returncode, res.stderr) == (
                2, b"error: standard output is closed\n"), (args, run)
    assert not cache.exists()


# the program: main() reads sys.argv and ends the process itself, unless a
# tracer or profiler watches it
PROGRAM = ("import sys; from klext.cli import main; {hook}sys.argv = ['klext', *sys.argv[1:]]; "
           "status = main(); print('returned', status)")


@pytest.mark.parametrize("args,status", [
    (("--format", "json", "info", "A", "2"), 0),
    (("mu", "A", "2", "--cutoff", "8", "--x", "1", "--y", "5"), 0),
    (("info", "Z", "2"), 2),
    (("--max-elements", "30", "enumerate", "A", "2", "--cutoff", "10"), 3),
])
def test_program_ends_the_process_and_main_argv_returns(args, status, capsys):
    from klext import cli

    module = subprocess.run([sys.executable, "-m", "klext.cli", *args],
                            capture_output=True, timeout=60)
    program = subprocess.run([sys.executable, "-c", PROGRAM.format(hook=""), *args],
                             capture_output=True, timeout=60)
    assert module.returncode == program.returncode == status
    assert program.stdout == module.stdout and program.stderr == module.stderr
    assert b"returned" not in program.stdout
    # under a tracer or a profiler main returns, after the same output
    for hook in ("sys.settrace(lambda *a: None); ", "sys.setprofile(lambda *a: None); "):
        watched = subprocess.run([sys.executable, "-c", PROGRAM.format(hook=hook), *args],
                                 capture_output=True, timeout=60)
        assert watched.returncode == 0, watched.stderr
        assert watched.stdout == module.stdout + f"returned {status}\n".encode()
    # main(argv) in this process returns the status
    assert cli.main(list(args)) == status
    assert capsys.readouterr().out.encode() == module.stdout


def test_help_exits_0_with_its_usage():
    res = subprocess.run([sys.executable, "-c", PROGRAM.format(hook=""), "--help"],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0 and res.stdout.startswith("usage: klext")
    assert "returned" not in res.stdout


def line_render_text(payload, indent=0) -> str:
    """The text format as a line list per container, every line filtered
    before one join: the reference for ``cli._render_text``."""
    out = []
    pad = "  " * indent
    if isinstance(payload, dict):
        for k in payload if indent else sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)) and v and not _is_scalar_list(v):
                out.append(f"{pad}{k}:")
                out.append(line_render_text(v, indent + 1))
            else:
                out.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)):
                out.append(line_render_text(item, indent).rstrip("\n"))
                out.append(f"{pad}-")
            else:
                out.append(f"{pad}- {_scalar(item)}")
    else:
        out.append(f"{pad}{_scalar(payload)}")
    return "\n".join(x for x in out if x != "") + ("\n" if indent == 0 else "")


def _is_scalar_list(v):
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)


def _scalar(v):
    if isinstance(v, list):
        return json.dumps(v)
    return v


def test_text_renderer_matches_the_line_renderer():
    from klext.cli import _render

    rng = random.Random(2)
    for _ in range(3000):
        payload = _random_json(rng)
        assert "".join(_render(payload, "text")) == line_render_text(payload)


# G2@18 has coefficients up to 14 and 3-digit indices, C3@6 is rank 3
@pytest.mark.parametrize("lab,rank,cutoff", [
    pytest.param("A", 2, 8, id="A"),
    pytest.param("B", 2, 8, id="B"),
    pytest.param("G", 2, 18, id="G"),
    pytest.param("C", 3, 6, id="C"),
])
def test_kl_all_prints_the_per_pair_records(lab, rank, cutoff, monkeypatch, capsys):
    # the row walk against one index-checked record per pair, in every format
    from klext import cli
    from klext.rootsys import build_root_system

    monkeypatch.delenv("KLEXT_CACHE_DIR", raising=False)
    table = cli.ensure_table(build_root_system(lab, rank), cutoff)
    records = [cli._kl_record(table, x, y)
               for y in range(len(table.slice)) for x in sorted(table.rows_for(y))]
    payload = {"records": records, "csv_rows": [
        ["x", "y", "length_x", "length_y", "polynomial", "mu"],
        *([r["x"], r["y"], r["length_x"], r["length_y"], json.dumps(r["polynomial_coeffs"]),
           r["mu"]] for r in records),
    ]}
    want = {"json": json.dumps(payload, sort_keys=True, indent=2) + "\n",
            "csv": cli._render_csv(payload), "text": line_render_text(payload)}
    for fmt, text in want.items():
        assert cli.main(["--format", fmt, "kl", lab, str(rank), "--cutoff", str(cutoff),
                         "--all"]) == 0
        assert capsys.readouterr().out == text, fmt


ALL_TAKES_NO_XY = "error: kl --all takes no --x or --y\n"


@pytest.mark.parametrize("flags,err", [
    (["--all", "--x", "99"], ALL_TAKES_NO_XY),
    (["--all", "--y", "1"], ALL_TAKES_NO_XY),
    (["--all", "--x", "99", "--y", "1"], ALL_TAKES_NO_XY),
    (["--x", "3"], "error: kl needs --x and --y (or --all)\n"),
], ids=["all-x", "all-y", "all-x-y", "x-only"])
def test_kl_usage_errors_come_before_the_slice(flags, err, tmp_path, monkeypatch, capsys):
    # --all prints the whole table, so an --x or --y beside it is a usage
    # error, and a pair needs both; each is found before the slice is
    # enumerated or the cache directory made
    from klext import cli

    def never(*args):
        raise AssertionError("the slice was enumerated")

    monkeypatch.setattr(cli.weylaffine, "enumerate_slice", never)
    cache = tmp_path / "cache"
    status = cli.main(["--cache-dir", str(cache), "kl", "A", "2", "--cutoff", "3", *flags])
    assert (status, *capsys.readouterr()) == (2, "", err)
    assert not cache.exists()


def _outcome(argv, capsys):
    """(exit status, stdout, stderr) of ``cli.main(argv)`` in process."""
    from klext import cli

    try:
        status = cli.main(list(argv))
    except SystemExit as ex:  # argparse's --help, --version and usage errors
        status = ex.code
    out, err = capsys.readouterr()
    return status, out, err


# (command line, the full parsers it builds): a plain line builds none, with
# or without --config; any other line builds one, which prints its help or
# its usage error or parses it; a declined --config line builds a second, on
# which the file sets defaults
MU = ["A", "2", "--cutoff", "4", "--x", "1", "--y", "2"]
PARSER_CASES = [
    (["--help"], 1),
    *(([name, "--help"], 1) for name in dict.fromkeys(a[0] for a in EVERY_COMMAND)),
    (["--version"], 1),
    ([], 1),
    (["bogus", "A", "2"], 1),
    (["-h", "mu", "A", "2"], 1),
    (["--he", "mu", "A", "2"], 1),
    (["--format", "xml", "mu", *MU], 1),
    (["mu", "A", "2", "--x", "1"], 1),
    (["--cache", "cache", "mu", *MU], 1),
    (["--cache-dir", "mu", "mu", *MU], 0),
    (["--config", "verify", "mu", *MU], 0),
    (["--config", "mu", "kl", *MU], 0),
    (["--config", "conf.json", "mu", "A", "2", "--x", "1", "--y", "2"], 0),
    (["--config", "conf.json", "--format", "json", "extsum", "A", "1", "--x", "4", "--n", "1"],
     0),
    (["--config", "conf.json", "mu", "A", "2", "--x=1", "--y", "2"], 2),
    (["mu", *MU, "--version"], 1),
]


@pytest.mark.parametrize("argv, builds", PARSER_CASES, ids=[" ".join(a) for a, _ in PARSER_CASES])
def test_one_command_parser_prints_what_the_full_parser_prints(argv, builds, tmp_path, capsys,
                                                               monkeypatch):
    # a plain line is parsed without argparse and prints what the full
    # parser's parse of it prints; every other line builds the full parser
    from klext import cli

    monkeypatch.delenv("KLEXT_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conf.json").write_text(json.dumps({"cutoff": 4, "l": 3}))
    full = cli.build_parser
    built = []

    def spy(config=None):
        built.append(argv)
        return full(config)

    monkeypatch.setattr(cli, "build_parser", spy)
    got = _outcome(argv, capsys)
    assert len(built) == builds
    monkeypatch.setattr(cli, "_fast_parse", lambda argv, config=None: None)
    assert got == _outcome(argv, capsys)
    assert got[0] in (0, 2) and got[1] + got[2]


_COMMAND_NAMES = {argv[0] for argv in EVERY_COMMAND}


def _perturbed(rng, argv):
    """``argv`` with one change that argparse may take or refuse: options
    reordered, an abbreviation, an ``=`` form, a negative value, a repeated
    or a dropped option, an extra token, a help flag anywhere, or a global
    option after the command."""
    argv = list(argv)
    flags = [i for i, token in enumerate(argv) if token.startswith("--")]
    kind = rng.choice(["reorder", "abbrev", "equals", "negative", "repeat", "drop", "extra",
                       "help", "global"])
    at = rng.choice(flags) if flags else None
    valued = at is not None and at + 1 < len(argv) and not argv[at + 1].startswith("-")
    if kind == "reorder":  # the options after the command, in another order
        command = next((i for i, token in enumerate(argv) if token in _COMMAND_NAMES), len(argv))
        starts = [i for i in flags if i > command] + [len(argv)]
        groups = [argv[a:b] for a, b in zip(starts, starts[1:])]
        rng.shuffle(groups)
        argv = argv[:starts[0]] + [token for group in groups for token in group]
    elif kind == "abbrev" and at is not None:
        argv[at] = argv[at][:rng.randrange(3, max(4, len(argv[at])))]
    elif kind == "equals" and valued:
        argv[at:at + 2] = [f"{argv[at]}={argv[at + 1]}"]
    elif kind == "negative" and valued:
        argv[at + 1] = rng.choice(["-1", "-3", "-0", "-1,0"])
    elif kind == "repeat" and at is not None:
        argv += argv[at:at + 1 + valued]
    elif kind == "drop" and at is not None:
        del argv[at:at + 1 + valued]
    elif kind == "extra":
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["5", "A", "extra", "--bogus", "-",
                                                              "--", ""]))
    elif kind == "help":
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["-h", "--help", "--version"]))
    elif kind == "global":
        argv += rng.choice([["--format", "json"], ["--workers", "2"], ["--cache-dir", "c"]])
    return argv


def _parse_corpus():
    """The command lines of the parse tests: every line that the tests, the
    benchmark and the README run, and 1500 seeded perturbations of them."""
    base = [*EVERY_COMMAND, *BENCH_KINDS, *readme_commands(), *(a for a, _ in PARSER_CASES),
            ["--workers", "2", "--max-elements", "500", "--cache-dir", "c", *EVERY_COMMAND[2]],
            ["bounds", "A", "2", "--p", "3", "--n", "1", "--n", "2"]]
    rng = random.Random(35)
    return [*base, *(_perturbed(rng, rng.choice(base)) for _ in range(1500))]


def _argparse_vars(parser, argv):
    """``vars(parser.parse_args(argv))``, or None where argparse exits."""
    import contextlib
    import io

    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(parser.parse_args(argv))
    except SystemExit:
        return None


def test_plain_parse_agrees_with_argparse():
    # on every line, _fast_parse either declines or returns argparse's
    # namespace; it declines every line that argparse refuses or answers by
    # printing (help, version)
    from klext import cli

    parser = cli.build_parser()
    taken = declined = refused = 0
    for argv in _parse_corpus():
        want = _argparse_vars(parser, argv)
        got = cli._fast_parse(argv)
        if want is None:
            assert got is None, argv
            refused += 1
        elif got is None:
            declined += 1
        else:
            assert vars(got) == want, argv
            taken += 1
    # the corpus reaches all three outcomes in numbers
    assert min(taken, declined, refused) > 100, (taken, declined, refused)


# config defaults as _config returns them: global options, a repeatable
# option's list, switches, and options that one command requires (enumerate
# --cutoff, mu --x) and another takes from a file
PARSE_CONFIGS = [
    {"n": [2], "cutoff": 6},
    {"format": "json", "l": 5},
    {"finite": True, "all": True, "empirical": True, "cutoff": 3},
    {"format": "csv", "n": [4], "workers": 3, "cache_dir": "d"},
    {"max_elements": 50, "l": 2, "x": 1, "bound": "2,2"},
]


def test_plain_parse_with_config_agrees_with_argparse():
    # with a config file's defaults, _fast_parse either declines or returns
    # the namespace of the full parser that has those defaults; each config
    # keeps the keys that the parsed command takes from a file
    from klext import cli

    plain_parser = cli.build_parser()
    global_dests = {dest for dest, _ in cli._Declared(cli._global_args).options.values()}
    parsers = {}
    taken = declined = 0
    for argv in _parse_corpus():
        plain = _argparse_vars(plain_parser, argv)
        for i, config in enumerate(PARSE_CONFIGS):
            if plain is None:  # defaults never make a refused line valid
                assert cli._fast_parse(argv, config) is None, (argv, config)
                continue
            command = cli._Declared(cli.COMMANDS[plain["command"]][2])
            takes = global_dests | {dest for dest, spec in command.options.values()
                                    if not spec.get("required")}
            config = {dest: v for dest, v in config.items() if dest in takes}
            key = (i, *sorted(config))
            if key not in parsers:
                parsers[key] = cli.build_parser(config)
            got = cli._fast_parse(argv, config)
            if got is None:
                declined += 1
            else:
                assert vars(got) == _argparse_vars(parsers[key], argv), (argv, config)
                taken += 1
    assert min(taken, declined) > 500, (taken, declined)


def test_plain_lines_take_the_plain_parse(tmp_path):
    # the lines of the tests and of the benchmark's kinds never build the
    # full parser, also with the global options the benchmark adds
    from klext import cli

    for argv in (*EVERY_COMMAND, *BENCH_KINDS, *readme_commands()):
        assert cli._fast_parse(argv) is not None, argv
        for flag, value in (("--cache-dir", str(tmp_path)), ("--format", "json")):
            if flag not in argv:
                assert cli._fast_parse([flag, value, *argv]) is not None, (flag, argv)


def test_plain_lines_load_no_argparse(tmp_path):
    # an uncached mu, a warm kl --x --y (after a cold one), a JSON ext1, a
    # repeated bounds --n and a --config line finish with neither argparse
    # nor gettext nor locale loaded; mu --help loads argparse
    import os

    cache = str(tmp_path)
    conf = str(tmp_path / "conf.json")
    with open(conf, "w") as fh:
        json.dump({"n": 2, "format": "csv", "cutoff": 4}, fh)
    runs = [["mu", "A", "2", "--cutoff", "8", "--x", "3", "--y", "40"],
            ["--cache-dir", cache, "kl", "A", "2", "--cutoff", "8", "--x", "3", "--y", "40"],
            ["--cache-dir", cache, "kl", "A", "2", "--cutoff", "8", "--x", "3", "--y", "40"],
            ["--format", "json", "ext1", "A", "2", "--cutoff", "8", "--lam", "1,1", "--nu", "1,1"],
            ["bounds", "A", "2", "--p", "3", "--n", "1", "--n", "2"],
            ["--config", conf, "--format", "json", "bounds", "A", "2", "--p", "3", "--n", "5"],
            ["mu", "--help"]]
    code = ("import contextlib, io, sys\n"
            "base = set(sys.modules)\n"
            "from klext import cli\n"
            "found = []\n"
            f"for argv in {runs!r}:\n"
            "    try:\n"
            "        with contextlib.redirect_stdout(io.StringIO()):\n"
            "            status = cli.main(argv)\n"
            "    except SystemExit as ex:\n"
            "        status = ex.code\n"
            "    found.append((status, [m for m in ('argparse', 'gettext', 'locale')\n"
            "                           if m in set(sys.modules) - base]))\n"
            "print(found)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    found = eval(res.stdout)
    assert found[:-1] == [(0, [])] * (len(runs) - 1)
    assert found[-1][0] == 0 and "argparse" in found[-1][1]
    assert any(name.startswith("kl_") for name in os.listdir(cache))
