"""Command-line surface: emission formats, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import redchern
from redchern import oracle, verify
from redchern.chern import reduced_chern_formula
from redchern.cli import RANK_CAP, main, reproduce_command
from redchern.poly import MPoly
from redchern.universal import compute_phi

from .test_oracle import corrupt

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def runner():
    return CliRunner()


class TestFormula:
    def test_latex_pinned(self, runner):
        result = runner.invoke(main, ["formula", "-n", "3", "-r", "2", "--format", "latex"])
        assert result.exit_code == 0
        assert result.output.strip() == r"c_2 - \frac{1}{3} c_1^2"

    def test_text_zero(self, runner):
        result = runner.invoke(main, ["formula", "-n", "2", "-r", "1"])
        assert result.exit_code == 0
        assert result.output.strip() == "0"

    def test_json_pinned(self, runner):
        result = runner.invoke(main, ["formula", "-n", "2", "-r", "2", "--format", "json"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert [t["coeff"] for t in obj["terms"]] == ["1", "-1/4"]
        assert obj == reduced_chern_formula(2)[1].to_json_obj()

    def test_bad_range_exits_2(self, runner):
        assert runner.invoke(main, ["formula", "-n", "3", "-r", "5"]).exit_code == 2
        assert runner.invoke(main, ["formula", "-n", "3", "-r", "0"]).exit_code == 2
        assert runner.invoke(main, ["formula", "-n", "1", "-r", "1"]).exit_code == 2
        assert runner.invoke(main, ["formula", "-n", "7", "-r", "1"]).exit_code == 2

    def test_allow_large_rank_acknowledgment(self, runner):
        result = runner.invoke(
            main, ["formula", "-n", "7", "-r", "2", "--allow-large-rank"]
        )
        assert result.exit_code == 0
        assert result.output.strip() == "c_2 - 3/7 c_1^2"

    def test_formats_agree(self, runner):
        js = runner.invoke(main, ["formula", "-n", "4", "-r", "3", "--format", "json"])
        assert json.loads(js.output) == reduced_chern_formula(4)[2].to_json_obj()


def test_each_command_is_registered_once_by_name():
    assert sorted(main.commands) == ["formula", "table", "universal", "verify"]


@pytest.mark.parametrize("command", sorted(main.commands))
def test_help_names_the_rank_cap(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0
    assert f"Permit ranks above {RANK_CAP}." in result.output


# each command's options as --help renders them, with their help text
OPTION_HELP = {
    "formula": (
        "-n RANK, --rank RANK Bundle rank n.",
        "-r INDEX, --index INDEX Class index r.",
        "--format {text,latex,json} [default: text]",
        "--out OUT Output path (default stdout).",
        f"--allow-large-rank Permit ranks above {RANK_CAP}.",
    ),
    "universal": (
        "-n RANK, --rank RANK Bundle rank n.",
        "--format {text,latex,json} [default: text]",
        "--out OUT Output path (default stdout).",
        f"--allow-large-rank Permit ranks above {RANK_CAP}.",
    ),
    "verify": (
        "--suite {" + ",".join([*verify.SUITE_NAMES, "all"]) + "} [default: all]",
        "--max-rank MAX_RANK [default: 4]",
        "--seed SEED [default: 0]",
        "--out OUT Report path (default stdout).",
        f"--allow-large-rank Permit ranks above {RANK_CAP}.",
    ),
    "table": (
        "--max-rank MAX_RANK [default: 4]",
        "--out OUT Output path (default stdout).",
        f"--allow-large-rank Permit ranks above {RANK_CAP}.",
    ),
}


@pytest.mark.parametrize("command", sorted(OPTION_HELP))
def test_help_lists_each_option_with_its_help_text(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0
    text = " ".join(result.stdout.split())
    assert text.startswith(f"usage: redchern {command} ")
    for line in OPTION_HELP[command]:
        assert line in text
    assert "--help Show this message and exit." in text
    first_line = main.commands[command].__doc__.split("\n")[0]
    assert first_line in " ".join(runner.invoke(main, ["--help"]).stdout.split())


@pytest.mark.parametrize(
    "args",
    (
        ["verify", "--max", "3"],  # an abbreviation of --max-rank
        ["verify", "-h"],  # --help is the one help option
        ["formula", "-n", "2", "-r", "1", "--allow-large-rank=1"],
        ["formula", "-n", "2", "-r", "1", "extra"],
        [],
    ),
)
def test_argv_outside_the_options_exits_2(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    # the error comes with the usage of the command it was given to
    assert " ".join(["redchern", *args[:1]]) + ": error:" in result.stderr


class TestUniversal:
    def test_rank_two_json(self, runner):
        result = runner.invoke(main, ["universal", "-n", "2", "--format", "json"])
        assert result.exit_code == 0
        obj = json.loads(result.output)
        assert obj["N"] == 3
        assert obj["lead"] == ["3", "4"]
        assert obj["psi"][0] == compute_phi(2).psi[0].to_json_obj()
        assert obj["phi"][0] == compute_phi(2).phi[0].to_json_obj()

    def test_rank_three_count(self, runner):
        result = runner.invoke(main, ["universal", "-n", "3", "--format", "json"])
        assert json.loads(result.output)["N"] == 10

    def test_rank_five_count(self, runner):
        result = runner.invoke(main, ["universal", "-n", "5", "--format", "json"])
        assert json.loads(result.output)["N"] == 126

    def test_text_output(self, runner):
        result = runner.invoke(main, ["universal", "-n", "2"])
        assert "N = 3" in result.output
        assert "psi_1 = 1/3 s_1" in result.output
        assert "phi_2 = 1/4 u_2" in result.output

    def test_range(self, runner):
        assert runner.invoke(main, ["universal", "-n", "9"]).exit_code == 2

    def test_rank_seven_bytes_pinned(self, runner):
        # stdout of `redchern universal -n 7 --allow-large-rank`, the digest
        # the universal-r7 benchmark workload gates on
        result = runner.invoke(main, ["universal", "-n", "7", "--allow-large-rank"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
            "10e7e18ac03135a8e47e7625c4b42ef0b23f69c6b9d07cd7776f41ff8bac84ae"
        )

    def test_rank_twelve_bytes_pinned(self, runner):
        # stdout of `redchern universal -n 12 --allow-large-rank`, recorded
        # when s_1..s_12 still came from listing the 1 352 078 forms
        result = runner.invoke(main, ["universal", "-n", "12", "--allow-large-rank"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
            "79a9d1e732ee7381552a86c2f83514898ca5385094fc31842cb40cded69bfcfb"
        )

    def test_rank_fourteen_json_bytes_pinned(self, runner):
        # stdout of `redchern universal -n 14 --allow-large-rank --format
        # json`, recorded when psi still came from back-substituting the
        # full triangular system and phi from substituting s_1 = 0 into it
        result = runner.invoke(
            main, ["universal", "-n", "14", "--allow-large-rank", "--format", "json"]
        )
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
            "92c20398c0150f49f882e0217be06b039d64c928d978f1f75397d739c7023aa2"
        )


# the three seed blocks of the toy-sweep benchmark workload
TOY_BLOCK_SHA = {
    0: "72637fa3aa079ab1128d8dede2c12a6d8358fd3ae32e8c63a3d7c745ea0db5a6",
    20: "c35e5cc1367798afeac0688f6376b26a7d04bfdb0b579cc07523c007c1e99ef4",
    40: "0c95aabbe01578a8f37a8929dfbff7fd8ea6a40d32331ad038ffe1e99e5305bf",
}


class TestVerify:
    def test_all_rank_two_passes(self, runner):
        result = runner.invoke(main, ["verify", "--max-rank", "2"])
        assert result.exit_code == 0
        lines = [json.loads(line) for line in result.stdout.splitlines() if line]
        assert lines and all(entry["status"] == "pass" for entry in lines)

    def test_all_default_rank_passes(self, runner):
        result = runner.invoke(main, ["verify"])
        assert result.exit_code == 0

    def test_report_written_to_file(self, runner, tmp_path):
        out = tmp_path / "report.jsonl"
        result = runner.invoke(
            main,
            ["verify", "--suite", "c1-zero", "--max-rank", "3", "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines() if line]
        assert len(rows) == 2 + 3 and all(r["status"] == "pass" for r in rows)

    def test_formula_agreement_to_rank_six(self, runner):
        result = runner.invoke(
            main, ["verify", "--suite", "formula-agreement", "--max-rank", "6"]
        )
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == 2 + 3 + 4 + 5 + 6

    def test_report_is_sorted_and_deterministic(self, runner):
        args = ["verify", "--suite", "toy-rings", "--max-rank", "2", "--seed", "3"]
        out1 = runner.invoke(main, args).stdout
        out2 = runner.invoke(main, args).stdout
        assert out1 == out2
        rows = [json.loads(line) for line in out1.splitlines() if line]
        keys = [(r["identity"], r["ring"], r["rank"], r["seed"]) for r in rows]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("seed", sorted(TOY_BLOCK_SHA))
    def test_toy_rings_report_bytes_pinned(self, runner, seed):
        # stdout of `redchern verify --suite toy-rings --max-rank 5 --seed S`
        result = runner.invoke(
            main,
            ["verify", "--suite", "toy-rings", "--max-rank", "5", "--seed", str(seed)],
        )
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == TOY_BLOCK_SHA[seed]

    def test_toy_rings_rank_six_held_out_seed_bytes_pinned(self, runner):
        # stdout of `redchern verify --suite toy-rings --max-rank 6 --seed 1000`,
        # recorded while the suite evaluated one seed at a time
        result = runner.invoke(
            main,
            ["verify", "--suite", "toy-rings", "--max-rank", "6", "--seed", "1000"],
        )
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
            "f00bfb4f778179ad1a30df794962b6be4bb29c1abb14aa69c5d41d997346811a"
        )

    def test_all_suites_report_bytes_pinned(self, runner):
        # stdout of `redchern verify --suite all --max-rank 5 --seed 0`
        result = runner.invoke(
            main, ["verify", "--suite", "all", "--max-rank", "5", "--seed", "0"]
        )
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
            "a0282c25a3be6c7bcb11dda53fa639bc7856b7024a543fd16645bd2f2800644e"
        )

    def test_all_suites_rank_six_report_bytes_pinned(self, runner):
        # stdout of `redchern verify --suite all --max-rank 6 --seed 0`, the
        # verify-r6 benchmark workload, as pinned in perfbench/run.py
        result = runner.invoke(
            main, ["verify", "--suite", "all", "--max-rank", "6", "--seed", "0"]
        )
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
            "eabe41a503739d8d471bf9f8707712e14897efda113683ad05b4a91c882c6e87"
        )

    def test_all_suites_rank_nine_report_bytes_pinned(self, runner):
        # stdout of `redchern verify --suite all --max-rank 9
        # --allow-large-rank`, recorded when elementary_to_monomial still
        # dropped the partitions with more than n parts; triangularity reads
        # rows of weight up to 10 here
        result = runner.invoke(
            main, ["verify", "--suite", "all", "--max-rank", "9", "--allow-large-rank"]
        )
        assert result.exit_code == 0
        assert result.stderr.splitlines()[-1] == "2636/2636 checks passed"
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
            "0c8e1cf253b583731ab4e12aa3b7a6172e2e68ae925f5befa12c730d1187edb1"
        )

    def test_positivity_rank_seven_report_bytes_pinned(self, runner):
        # stdout of `redchern verify --suite positivity --max-rank 7
        # --allow-large-rank`, recorded when the suite still expanded the
        # product of the 1716 forms
        result = runner.invoke(
            main,
            ["verify", "--suite", "positivity", "--max-rank", "7", "--allow-large-rank"],
        )
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
            "abf9fbc99a2e3783b36c240f2f924a5619e82b943a91872641a699da55a2fb32"
        )

    def test_corrupted_build_exits_1(self, runner, monkeypatch):
        bad = corrupt(oracle.rank_theory(2), "phi", 0)
        monkeypatch.setattr(oracle, "rank_theory", lambda n: bad)
        result = runner.invoke(
            main, ["verify", "--suite", "toy-rings", "--max-rank", "2"]
        )
        assert result.exit_code == 1
        rows = [json.loads(line) for line in result.stdout.splitlines() if line]
        assert any(r["status"] == "fail" for r in rows)
        assert any(
            r["witness"] is not None for r in rows if r["status"] == "fail"
        )

    def test_failing_checks_reproduce_on_stderr(self, runner, monkeypatch):
        bad = corrupt(oracle.rank_theory(2), "phi", 0)
        monkeypatch.setattr(oracle, "rank_theory", lambda n: bad)
        result = runner.invoke(
            main, ["verify", "--suite", "toy-rings", "--max-rank", "2"]
        )
        assert result.exit_code == 1
        lines = result.stderr.splitlines()
        assert lines[-1] == "242/300 checks passed"
        assert lines[0] == (
            '{"check":{"identity":"phi-roundtrip","ring":"mixed-degrees","rank":2,'
            '"seed":0,"status":"fail","witness":{"vars":[{"name":"h","degree":1},'
            '{"name":"g","degree":2}],"terms":[{"coeff":"3","exps":[2,0]}]}},'
            '"reproduce":"redchern verify --suite toy-rings --max-rank 2 --seed 0"}'
        )
        failed = [json.loads(line) for line in lines[:-1]]
        compact = [json.dumps(f["check"], separators=(",", ":")) for f in failed]
        assert compact == [
            line for line in result.stdout.splitlines() if '"status":"fail"' in line
        ]
        # the command of a later seed reports that same check
        last = failed[-1]
        assert last["reproduce"].endswith("--seed 19")
        again = runner.invoke(main, last["reproduce"].split()[1:])
        assert compact[-1] in again.stdout.splitlines()

    @pytest.mark.parametrize(
        "identity, ring, rank, seed, command",
        (
            ("twist", "two-lines", 7, 33, "--suite toy-rings --max-rank 7 --seed 33"
             " --allow-large-rank"),
            ("c1F-zero", "two-lines", 3, 5, "--suite toy-rings --max-rank 3 --seed 5"),
            ("c1F-zero", "symbolic", 4, 0, "--suite phi-roundtrip --max-rank 4"),
            ("triangularity-e-to-m", "symbolic", 7, 0,
             "--suite triangularity --max-rank 7 --allow-large-rank"),
            ("positivity", "symbolic", 6, 0, "--suite positivity --max-rank 6"),
        ),
    )
    def test_reproduce_command(self, identity, ring, rank, seed, command):
        check = oracle.CheckResult(identity, ring, rank, seed, "fail")
        assert reproduce_command(check) == "redchern verify " + command

    def test_reproduce_command_reports_every_identity_on_every_ring(self, runner):
        # the first check of each (identity, ring) pair of the full report,
        # so a tag that the command sends to the wrong suite fails here
        first = {}
        for check in verify.run_suite("all", 3, 0):
            first.setdefault((check.identity, check.ring), check)
        assert len(first) == 23
        for check in first.values():
            command = reproduce_command(check)
            result = runner.invoke(main, command.split()[1:])
            line = json.dumps(check.to_json_obj(), separators=(",", ":"))
            assert result.exit_code == 0 and line in result.stdout.splitlines(), command

    def test_unknown_suite_exits_2(self, runner):
        assert runner.invoke(main, ["verify", "--suite", "bogus"]).exit_code == 2

    def test_negative_seed_exits_2(self, runner):
        # random.Random drops the sign of its seed, so --seed -5 would draw
        # the bundles of --seed 5 again without saying so
        args = ["verify", "--suite", "toy-rings", "--max-rank", "2", "--seed"]
        result = runner.invoke(main, args + ["-5"])
        assert result.exit_code == 2
        assert "--seed" in result.output
        assert runner.invoke(main, args + ["0"]).exit_code == 0


class TestTable:
    def test_byte_identical_reruns(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert runner.invoke(main, ["table", "--max-rank", "4", "--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, ["table", "--max-rank", "4", "--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_matches_golden_file(self, runner, tmp_path):
        for max_rank in (4, 6):
            out = tmp_path / f"table{max_rank}.json"
            runner.invoke(main, ["table", "--max-rank", str(max_rank), "--out", str(out)])
            golden = GOLDEN / f"table_rank{max_rank}.json"
            assert out.read_bytes() == golden.read_bytes()

    def test_minimal_table_contents(self, runner):
        result = runner.invoke(main, ["table", "--max-rank", "2"])
        obj = json.loads(result.output)
        assert obj["max_rank"] == 2
        assert obj["ranks"][0]["N"] == 3

    def test_rank_three_table_pins_degree_two_class(self, runner):
        result = runner.invoke(main, ["table", "--max-rank", "3"])
        obj = json.loads(result.output)
        entry = next(e for e in obj["ranks"] if e["n"] == 3)
        from fractions import Fraction

        from redchern.poly import c_vars

        c1 = MPoly.variable(c_vars(3), "c1")
        c2 = MPoly.variable(c_vars(3), "c2")
        assert entry["reduced"][1] == (c2 - Fraction(1, 3) * c1**2).to_json_obj()

    def test_io_failure_exits_3(self, runner):
        result = runner.invoke(
            main, ["table", "--max-rank", "2", "--out", "/dev/null/nope/t.json"]
        )
        assert result.exit_code == 3

    def test_out_dir_env_resolution(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("REDCHERN_OUT_DIR", str(tmp_path))
        runner.invoke(main, ["table", "--max-rank", "2", "--out", "sub/t.json"])
        assert (tmp_path / "sub" / "t.json").exists()


# Run in a fresh interpreter: prints the filled lru_caches of the package's
# modules and the number of quotient-ring presentations alive after import.
IMPORT_PROBE = """
import gc, json, sys
import redchern.cli
from redchern.poly import VarTable
modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "redchern"]
filled = sorted(
    f"{module.__name__}.{name}"
    for module in modules
    for name, f in vars(module).items()
    if hasattr(f, "cache_info") and f.cache_info().currsize
)
rings = [o for o in gc.get_objects() if isinstance(o, VarTable) and type(o) is not VarTable]
print(json.dumps({"filled": filled, "rings": len(rings)}))
"""


# Run in a fresh interpreter: prints the modules that importing the CLI adds.
IMPORT_BUDGET_PROBE = """
import json, sys
before = set(sys.modules)
import redchern.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _run(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    """A fresh interpreter's run of args, with the package on its path."""
    src = str(Path(redchern.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, check=check)


def test_importing_the_cli_loads_no_click_inspect_or_dataclasses():
    # every CLI process pays for these imports; click, and inspect, which
    # dataclasses imports too, were most of the CLI's start-up time
    added = set(json.loads(_run("-c", IMPORT_BUDGET_PROBE).stdout))
    assert "redchern.cli" in added
    assert added.isdisjoint({"click", "inspect", "dataclasses"})


def test_importing_the_cli_computes_nothing():
    # the CLI's start-up time is import time: no per-rank artifact is
    # cached and no toy ring or multiplication table is built before a command
    assert json.loads(_run("-c", IMPORT_PROBE).stdout) == {"filled": [], "rings": 0}


@pytest.mark.parametrize(
    "args, code",
    (
        (["verify", "--suite", "twist", "--max-rank", "3"], 0),
        (["formula", "-n", "7", "-r", "1"], 2),
    ),
)
def test_module_entry_matches_the_in_process_entry(capsysbinary, args, code):
    # `python -m redchern.cli` is what the benchmark runs, and
    # main.main(args=..., prog_name=...) is the call perfbench/tracer.py makes
    proc = _run("-m", "redchern.cli", *args, check=False)
    with pytest.raises(SystemExit) as exit_info:
        main.main(args=args, prog_name="redchern")
    captured = capsysbinary.readouterr()
    assert proc.returncode == exit_info.value.code == code
    assert proc.stdout == captured.out
    assert proc.stderr.splitlines()[-1] == captured.err.splitlines()[-1]
