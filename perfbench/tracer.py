"""In-process tracing of a redchern CLI run, from outside the package.

Run as a script, this file imports ``redchern.cli``, wraps the functions
listed in TARGETS, runs the CLI with the remaining arguments and, when the
CLI exits, writes what it recorded:

    python3 perfbench/tracer.py OUT_PREFIX verify --suite all --max-rank 6

``OUT_PREFIX.spans.jsonl`` holds one span per line (id, name, start, end,
parent); ``OUT_PREFIX.counters.json`` holds the counts taken at the same
boundaries, the ``cache_info()`` hits and misses of every cached target,
and the targets that do not exist in the program.  Stdout, stderr
and the exit code are the CLI's own, so a traced report can be compared
byte for byte with an untraced one.

Wrappers are installed at every binding site.  ``chern``, ``universal`` and
``verify`` each do ``from redchern.kernels import expand_linear_chain``, so
replacing the attribute of ``redchern.kernels`` alone would miss their
calls; ``verify._SUITES`` holds the suite functions in a dict.  Targets
wrapped by ``functools.lru_cache`` are wrapped outside the cache, so cache
hits still count as calls.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

# (module, attribute, span name).  An attribute "Class.method" is patched on
# the class, its only binding site.  The verify suites are added by
# suite_targets() because their names come from verify.SUITE_NAMES.
TARGETS = (
    ("redchern.kernels", "expand_linear_chain", "kernels.expand_linear_chain"),
    ("redchern.kernels", "mul_trunc", "kernels.mul_trunc"),
    ("redchern.symfun", "express_in_elementary", "symfun.express_in_elementary"),
    ("redchern.symfun", "symmetry_witness", "symfun.symmetry_witness"),
    ("redchern.symfun", "elementary_to_monomial", "symfun.elementary_to_monomial"),
    ("redchern.poly", "MPoly.substitute", "poly.substitute"),
    ("redchern.poly", "MPoly.evaluate", "poly.evaluate"),
    ("redchern.chern", "sym_power_det_inverse_chern", "chern.sym_power_det_inverse_chern"),
    ("redchern.chern", "twist", "chern.twist"),
    ("redchern.chern", "shifted_root_sigma", "chern.shifted_root_sigma"),
    ("redchern.universal", "s_in_elementary", "universal.s_in_elementary"),
    ("redchern.universal", "solve_psi", "universal.solve_psi"),
    ("redchern.universal", "compute_phi", "universal.compute_phi"),
    ("redchern.oracle", "rank_theory", "oracle.rank_theory"),
    ("redchern.oracle", "check_identity", "oracle.check_identity"),
    ("redchern.oracle", "random_bundle", "oracle.random_bundle"),
)

ROOT_SPAN = "cli"


def suite_targets() -> list[tuple[str, str, str]]:
    """One target per verification suite, named verify.<suite>."""
    verify = importlib.import_module("redchern.verify")
    return [
        ("redchern.verify", "suite_" + name.replace("-", "_"), f"verify.{name}")
        for name in verify.SUITE_NAMES
    ]


class Tracer:
    """Spans and counters of one process, kept in memory until dump()."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent] indexed by span id
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.chain_inputs: set = set()
        self.cached: dict[str, object] = {}
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else None])
        self.stack.append(sid)
        self.spans[sid][1] = perf_counter()
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self.stack.pop()

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for module_name, attr, name in TARGETS + tuple(suite_targets()):
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            fn = getattr(owner, fn_name, None)
            if fn is None:
                self.missing.append(name)
                continue
            if hasattr(fn, "cache_info"):
                self.cached[name] = fn
            wrapped = self.wrap(name, fn)
            if owner_name:
                setattr(owner, fn_name, wrapped)
            else:
                rebind(fn, wrapped)

    def dump(self, prefix: Path) -> None:
        prefix.parent.mkdir(parents=True, exist_ok=True)
        with open(f"{prefix}.spans.jsonl", "w", encoding="utf-8") as out:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent}
                    )
                    + "\n"
                )
        counters = dict(self.counters)
        counters["kernels.expand_linear_chain.distinct"] = len(self.chain_inputs)
        for name, fn in self.cached.items():
            info = fn.cache_info()
            counters[f"{name}.hits"] = info.hits
            counters[f"{name}.misses"] = info.misses
        with open(f"{prefix}.counters.json", "w", encoding="utf-8") as out:
            json.dump({"counters": counters, "missing": self.missing}, out)


def rebind(original, wrapped) -> None:
    """Replace `original` wherever a redchern module binds it.

    A binding site is a module global or a value of a module-level dict.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("redchern"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapped
            elif type(value) is dict:
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = wrapped


def _chain_hook(tracer: Tracer, args, result) -> None:
    forms, nvars, cap = args
    forms = tuple(tuple(f) for f in forms)
    tracer.count("kernels.expand_linear_chain.forms", len(forms))
    tracer.count("kernels.expand_linear_chain.terms_out", len(result))
    tracer.chain_inputs.add((forms, nvars, cap))


def _mul_hook(tracer: Tracer, args, result) -> None:
    tracer.count("kernels.mul_trunc.term_pairs", len(args[0]) * len(args[1]))


def _express_hook(tracer: Tracer, args, result) -> None:
    tracer.count("symfun.express_in_elementary.terms_in", len(args[0].terms))


_HOOKS = {
    "kernels.expand_linear_chain": _chain_hook,
    "kernels.mul_trunc": _mul_hook,
    "symfun.express_in_elementary": _express_hook,
}


def main(argv: list[str]):
    if len(argv) < 2:
        print("usage: tracer.py OUT_PREFIX CLI_ARG...", file=sys.stderr)
        return 2
    prefix = Path(argv[0])
    import redchern.cli

    tracer = Tracer()
    tracer.install()
    code = None
    root = tracer.open(ROOT_SPAN)
    try:
        redchern.cli.main.main(args=argv[1:], prog_name="redchern")
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.close(root)
        tracer.dump(prefix)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
