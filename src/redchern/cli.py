"""Command-line surface: formula and universal-polynomial emission, suite
execution and regression tables.

Exit codes: 0 success, 1 identity failure, 2 usage error, 3 I/O failure.
Relative --out paths resolve under $REDCHERN_OUT_DIR when it is set.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click

from redchern import chern, universal, verify
from redchern.poly import format_rational, render_latex, render_text

RANK_CAP = 6

_allow_large_rank_option = click.option(
    "--allow-large-rank", is_flag=True, help=f"Permit ranks above {RANK_CAP}."
)
_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "latex", "json"]),
    default="text",
    show_default=True,
)


def _resolve_out(out: str | None) -> Path | None:
    if out is None:
        return None
    path = Path(out)
    base = os.environ.get("REDCHERN_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _check_rank(n: int, allow_large: bool) -> None:
    if n < 2:
        raise click.UsageError("rank must be >= 2")
    if n > RANK_CAP and not allow_large:
        raise click.UsageError(
            f"rank {n} exceeds {RANK_CAP}; pass --allow-large-rank to acknowledge"
            " the cost"
        )


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        click.echo(text)
        return
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        click.echo(f"error: cannot write {out}: {exc}", err=True)
        sys.exit(3)


@click.group()
def main():
    """Exact reduced Chern class calculus."""


@main.command()
@click.option("--rank", "-n", type=int, required=True, help="Bundle rank n.")
@click.option("--index", "-r", type=int, required=True, help="Class index r.")
@_format_option
@click.option("--out", type=str, default=None, help="Output path (default stdout).")
@_allow_large_rank_option
def formula(rank, index, fmt, out, allow_large_rank):
    """Emit the reduced class of one rank and index."""
    _check_rank(rank, allow_large_rank)
    if not 1 <= index <= rank:
        raise click.UsageError(f"index must be in 1..{rank}")
    p = chern.reduced_chern_formula(rank)[index - 1]
    if fmt == "text":
        text = render_text(p)
    elif fmt == "latex":
        text = render_latex(p)
    else:
        text = p.dumps()
    _emit(text, _resolve_out(out))


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


@main.command("universal")
@click.option("--rank", "-n", type=int, required=True, help="Bundle rank n.")
@_format_option
@click.option("--out", type=str, default=None, help="Output path (default stdout).")
@_allow_large_rank_option
def universal_cmd(rank, fmt, out, allow_large_rank):
    """Emit psi, phi, the leading coefficients and the root count."""
    _check_rank(rank, allow_large_rank)
    ups = universal.compute_phi(rank)
    if fmt == "json":
        text = json.dumps(ups.to_json_obj(), separators=(",", ":"))
    else:
        text = _universal_text(ups, fmt == "latex")
    _emit(text, _resolve_out(out))


# identities reported under a suite of another name
_SUITE_OF_IDENTITY = {
    "c1F-zero": "phi-roundtrip",
    "triangularity-e-to-m": "triangularity",
}


def reproduce_command(result) -> str:
    """The verify invocation whose report contains this check.

    A toy check at (rank n, seed s) is in the toy-rings block that starts
    at seed s and covers ranks 2..n; a symbolic check is in its suite at
    max rank n, whatever the seed.
    """
    if result.ring == verify.SYMBOLIC:
        suite = _SUITE_OF_IDENTITY.get(result.identity, result.identity)
        args = ["--suite", suite, "--max-rank", str(result.rank)]
    else:
        args = ["--suite", "toy-rings", "--max-rank", str(result.rank)]
        args += ["--seed", str(result.seed)]
    if result.rank > RANK_CAP:
        args.append("--allow-large-rank")
    return " ".join(["redchern", "verify", *args])


@main.command("verify")
@click.option(
    "--suite",
    type=click.Choice(list(verify.SUITE_NAMES) + ["all"]),
    default="all",
    show_default=True,
)
@click.option("--max-rank", type=int, default=4, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=str, default=None, help="Report path (default stdout).")
@_allow_large_rank_option
def verify_cmd(suite, max_rank, seed, out, allow_large_rank):
    """Run a verification suite; exit 1 on any identity failure.

    Each failing check also goes to stderr as one JSON line, with the
    command that reproduces it.
    """
    _check_rank(max_rank, allow_large_rank)
    results = verify.run_suite(suite, max_rank=max_rank, seed=seed)
    lines = "\n".join(
        json.dumps(r.to_json_obj(), separators=(",", ":")) for r in results
    )
    _emit(lines, _resolve_out(out))
    failures = [r for r in results if not r.passed]
    for r in failures:
        failed = {"check": r.to_json_obj(), "reproduce": reproduce_command(r)}
        click.echo(json.dumps(failed, separators=(",", ":")), err=True)
    click.echo(
        f"{len(results) - len(failures)}/{len(results)} checks passed", err=True
    )
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


@main.command()
@click.option("--max-rank", type=int, default=4, show_default=True)
@click.option("--out", type=str, default=None, help="Output path (default stdout).")
@_allow_large_rank_option
def table(max_rank, out, allow_large_rank):
    """Write the regression table of classes and universal polynomials."""
    _check_rank(max_rank, allow_large_rank)
    text = json.dumps(table_json_obj(max_rank), indent=2)
    _emit(text, _resolve_out(out))


if __name__ == "__main__":
    main()
