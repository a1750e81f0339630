"""Command-line surface: formula and universal-polynomial emission, suite
execution and regression tables.

Exit codes: 0 success, 1 identity failure, 2 usage error, 3 I/O failure.
Relative --out paths resolve under $REDCHERN_OUT_DIR when it is set.

main is an argparse parser behind click's calling convention: main() runs
sys.argv (the console script and `python -m redchern.cli`), main.main(args,
prog_name) runs args in process, and both raise SystemExit with the exit
code.  main.name is the program name; main.commands maps each command name
to its handler, which takes the command's options as keywords.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from redchern import chern, universal, verify
from redchern.poly import format_rational, render_latex, render_text

RANK_CAP = 6


class UsageError(Exception):
    """Arguments that their command rejects: exit code 2."""


def _check_rank(n: int, allow_large: bool) -> None:
    if n < 2:
        raise UsageError("rank must be >= 2")
    if n > RANK_CAP and not allow_large:
        raise UsageError(
            f"rank {n} exceeds {RANK_CAP}; pass --allow-large-rank to acknowledge"
            " the cost"
        )


def _emit(text: str, out: str | None) -> None:
    if out is None:
        print(text, flush=True)
        return
    path, base = Path(out), os.environ.get("REDCHERN_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        sys.exit(3)


def formula(rank, index, fmt, out, allow_large_rank):
    """Emit the reduced class of one rank and index."""
    _check_rank(rank, allow_large_rank)
    if not 1 <= index <= rank:
        raise UsageError(f"index must be in 1..{rank}")
    p = chern.reduced_chern_formula(rank)[index - 1]
    if fmt == "text":
        text = render_text(p)
    elif fmt == "latex":
        text = render_latex(p)
    else:
        text = p.dumps()
    _emit(text, out)


def _universal_text(ups, latex: bool) -> str:
    lines = [f"n = {ups.rank}", f"N = {ups.count}"]
    render = render_latex if latex else render_text
    psi_name = "\\psi" if latex else "psi"
    phi_name = "\\phi" if latex else "phi"
    for i, p in enumerate(ups.psi, start=1):
        lines.append(f"{psi_name}_{i} = {render(p)}")
    for i, p in enumerate(ups.phi, start=2):
        lines.append(f"{phi_name}_{i} = {render(p)}")
    lines.append("lead = " + ", ".join(format_rational(c) for c in ups.lead))
    return "\n".join(lines)


def universal_cmd(rank, fmt, out, allow_large_rank):
    """Emit psi, phi, the leading coefficients and the root count."""
    _check_rank(rank, allow_large_rank)
    ups = universal.compute_phi(rank)
    if fmt == "json":
        text = json.dumps(ups.to_json_obj(), separators=(",", ":"))
    else:
        text = _universal_text(ups, fmt == "latex")
    _emit(text, out)


def reproduce_command(result) -> str:
    """The verify invocation whose report contains this check.

    The check is in verify.suite_of(result) at max rank n, its rank; only
    the toy-rings suite reads the seed, and its check at seed s is in the
    block that starts at s.
    """
    suite = verify.suite_of(result)
    args = ["--suite", suite, "--max-rank", str(result.rank)]
    if suite == "toy-rings":
        args += ["--seed", str(result.seed)]
    if result.rank > RANK_CAP:
        args.append("--allow-large-rank")
    return " ".join(["redchern", "verify", *args])


def verify_cmd(suite, max_rank, seed, out, allow_large_rank):
    """Run a verification suite; exit 1 on any identity failure.

    Each failing check also goes to stderr as one JSON line, with the
    command that reproduces it.
    """
    if seed < 0:
        # random.Random reads a seed by its absolute value
        raise UsageError(f"argument --seed: {seed} is not in the range x>=0")
    _check_rank(max_rank, allow_large_rank)
    results = verify.run_suite(suite, max_rank=max_rank, seed=seed)
    encode = json.JSONEncoder(separators=(",", ":")).encode
    _emit("\n".join(encode(r.to_json_obj()) for r in results), out)
    failures = [r for r in results if not r.passed]
    for r in failures:
        failed = {"check": r.to_json_obj(), "reproduce": reproduce_command(r)}
        print(encode(failed), file=sys.stderr)
    print(f"{len(results) - len(failures)}/{len(results)} checks passed", file=sys.stderr)
    if failures:
        sys.exit(1)


def table_json_obj(max_rank: int) -> dict:
    """The regression table for ranks 2..max_rank, in canonical JSON form."""
    ranks = []
    for n in range(2, max_rank + 1):
        ups = universal.compute_phi(n)
        entry = ups.to_json_obj()
        entry["reduced"] = [p.to_json_obj() for p in chern.reduced_chern_formula(n)]
        ranks.append(entry)
    return {"max_rank": max_rank, "ranks": ranks}


def table(max_rank, out, allow_large_rank):
    """Write the regression table of classes and universal polynomials."""
    _check_rank(max_rank, allow_large_rank)
    text = json.dumps(table_json_obj(max_rank), indent=2)
    _emit(text, out)


_DEFAULT = "[default: %(default)s]"
_RANK = ("-n", "--rank", dict(type=int, required=True, help="Bundle rank n."))
_MAX_RANK = ("--max-rank", dict(type=int, default=4, help=_DEFAULT))
_FORMAT = ("--format", dict(dest="fmt", choices=["text", "latex", "json"], default="text",
                            help=_DEFAULT))
_OUT = ("--out", dict(help="Output path (default stdout)."))
_LARGE = ("--allow-large-rank", dict(action="store_true",
                                     help=f"Permit ranks above {RANK_CAP}."))
_SUITE = ("--suite", dict(choices=[*verify.SUITE_NAMES, "all"], default="all", help=_DEFAULT))
_SEED = ("--seed", dict(type=int, default=0, help=_DEFAULT))
_INDEX = ("-r", "--index", dict(type=int, required=True, help="Class index r."))
_REPORT = ("--out", dict(help="Report path (default stdout)."))

# each command's handler and options, in --help order
_COMMANDS = {
    "formula": (formula, [_RANK, _INDEX, _FORMAT, _OUT, _LARGE]),
    "universal": (universal_cmd, [_RANK, _FORMAT, _OUT, _LARGE]),
    "verify": (verify_cmd, [_SUITE, _MAX_RANK, _SEED, _REPORT, _LARGE]),
    "table": (table, [_MAX_RANK, _OUT, _LARGE]),
}


def main(args=None, prog_name: str | None = None):
    """Run the command that args (default sys.argv[1:]) names; exit with its code."""
    common = {"add_help": False, "allow_abbrev": False}
    parser = argparse.ArgumentParser(prog_name or main.name, **common,
                                     description="Exact reduced Chern class calculus.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, (handler, options) in _COMMANDS.items():
        doc = handler.__doc__
        sub = commands.add_parser(name, help=doc.split("\n")[0], description=doc, **common)
        for *flags, spec in options:
            sub.add_argument(*flags, **spec)
    for sub in (parser, *commands.choices.values()):
        sub.add_argument("--help", action="help", help="Show this message and exit.")
    namespace, extra = parser.parse_known_args(args)
    name = vars(namespace).pop("command")
    try:
        if extra:
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
        main.commands[name](**vars(namespace))
    except UsageError as exc:
        commands.choices[name].error(str(exc))
    sys.exit(0)


main.main = main
main.name = "redchern"
main.commands = {name: handler for name, (handler, _) in _COMMANDS.items()}

if __name__ == "__main__":
    main()
